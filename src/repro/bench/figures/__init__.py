"""Figure registry: every table and figure of the paper by id."""

from __future__ import annotations

from importlib import import_module

REGISTRY: dict[str, str] = {
    "table1": "repro.bench.figures.table1",
    **{f"fig{i}": f"repro.bench.figures.fig{i:02d}" for i in range(1, 29)},
}

ALL_IDS = list(REGISTRY)


def load(figure_id: str):
    """Return the figure module for *figure_id* (e.g. ``fig1``/``fig01``)."""
    key = figure_id.lower().replace("figure", "fig").replace(" ", "")
    if key.startswith("fig") and key[3:].isdigit():
        key = f"fig{int(key[3:])}"
    if key not in REGISTRY:
        raise KeyError(f"unknown figure {figure_id!r}; known: {', '.join(ALL_IDS)}")
    return import_module(REGISTRY[key])


def run_figure(figure_id: str, quick: bool = False, jobs: int | None = None):
    """Run one figure; returns a list of FigureResult (or a string for table1).

    *jobs* > 1 fans the figure's independent cells/repetitions out over
    a process pool (see :mod:`repro.util.fanout`); output is
    bit-identical to the serial default.
    """
    from repro.util.fanout import using_jobs

    with using_jobs(jobs):
        return load(figure_id).run(quick=quick)
