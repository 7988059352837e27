"""Shared machinery for the figure-regeneration benchmarks.

``test_bench_figures.py`` regenerates each of the paper's tables and
figures (one parametrized bench per id in the figure table) via
pytest-benchmark.  A figure run is seconds of simulation, so benches
execute one round (``pedantic``), print the regenerated rows/series,
and record the headline values in ``extra_info`` so the benchmark JSON
carries the reproduced data.

Set ``REPRO_BENCH_FULL=1`` for full budgets/repetitions (the default is
the quick profile used by CI and the checked-in bench_output).
"""

from __future__ import annotations

import os

import pytest

from repro.bench.figures import run_figure
from repro.bench.report import render_figure, render_summary_line

QUICK = os.environ.get("REPRO_BENCH_FULL", "") != "1"


def regenerate(benchmark, figure_id: str) -> list:
    """Run one figure under pytest-benchmark and print its tables."""
    result = benchmark.pedantic(
        run_figure, args=(figure_id,), kwargs={"quick": QUICK}, rounds=1, iterations=1
    )
    if isinstance(result, str):  # table1
        print()
        print(result)
        benchmark.extra_info["figure"] = figure_id
        return []
    print()
    for panel in result:
        print(render_figure(panel))
        print()
        benchmark.extra_info[panel.figure_id] = render_summary_line(panel)
        for system in panel.systems:
            benchmark.extra_info[f"{panel.figure_id}/{system}"] = [
                round(v, 3) for v in panel.series(system)
            ]
    return result


@pytest.fixture
def figure_runner(benchmark):
    return lambda figure_id: regenerate(benchmark, figure_id)
