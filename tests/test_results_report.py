"""FigureResult and report-rendering tests."""

import pytest

from repro.bench.report import render_figure, render_summary_line, render_table1
from repro.bench.results import FigureResult, IPC, PERCENT_ENGINE, STALLS_PER_KI
from repro.bench.runner import RunResult
from repro.core.counters import PerfCounters
from repro.core.spec import IVY_BRIDGE


def fake_result(instr=10_000, cycles=20_000, txns=10, l1i=100, llcd=5,
                module_cycles=None, groups=None) -> RunResult:
    counters = PerfCounters(
        instructions=instr, cycles=cycles, transactions=txns,
        l1i_misses=l1i, llcd_misses=llcd,
    )
    return RunResult(
        system="test",
        counters=counters,
        module_cycles=module_cycles or {"engine_mod": 60.0, "outer_mod": 40.0},
        module_groups=groups or {"engine_mod": "engine", "outer_mod": "other"},
        server=IVY_BRIDGE,
        measured_txns=txns,
    )


def build_figure(metric) -> FigureResult:
    fig = FigureResult(
        figure_id="Figure X",
        title="test figure",
        metric=metric,
        x_label="size",
        x_values=["1MB", "10MB"],
        systems=["SysA", "SysB"],
    )
    for system in fig.systems:
        for x in fig.x_values:
            fig.add(system, x, fake_result())
    return fig


class TestFigureResult:
    def test_ipc_value(self):
        fig = build_figure(IPC)
        assert fig.value("SysA", "1MB") == pytest.approx(0.5)

    def test_percent_engine_value(self):
        fig = build_figure(PERCENT_ENGINE)
        assert fig.value("SysA", "1MB") == pytest.approx(60.0)

    def test_stall_breakdown(self):
        fig = build_figure(STALLS_PER_KI)
        b = fig.breakdown("SysB", "10MB")
        assert b.l1i == pytest.approx(100 * 8 / 10)
        assert fig.value("SysB", "10MB") == pytest.approx(b.total)

    def test_breakdown_rejected_for_scalar_metric(self):
        fig = build_figure(IPC)
        with pytest.raises(ValueError):
            fig.breakdown("SysA", "1MB")

    def test_series(self):
        fig = build_figure(IPC)
        assert fig.series("SysA") == [0.5, 0.5]

    def test_engine_time_fraction(self):
        assert fake_result().engine_time_fraction() == pytest.approx(0.6)


class TestRendering:
    def test_table1_contains_spec(self):
        text = render_table1(IVY_BRIDGE)
        assert "Ivy Bridge" in text
        assert "20MB" in text

    def test_scalar_figure_layout(self):
        text = render_figure(build_figure(IPC))
        assert "Figure X" in text
        assert "SysA" in text and "SysB" in text
        assert "0.50" in text

    def test_stall_figure_has_six_components(self):
        text = render_figure(build_figure(STALLS_PER_KI))
        for label in ("L1I", "L2I", "LLC I", "L1D", "L2D", "LLC D", "total"):
            assert label in text

    def test_notes_rendered(self):
        fig = build_figure(IPC)
        fig.notes.append("simulated substrate")
        assert "note: simulated substrate" in render_figure(fig)

    def test_summary_line(self):
        line = render_summary_line(build_figure(IPC))
        assert "SysA=0.50..0.50" in line


class TestRegistry:
    def test_all_figures_registered(self):
        from repro.bench.figures import ALL_IDS, REGISTRY

        assert len(ALL_IDS) == 29  # table1 + fig1..fig28
        assert "table1" in REGISTRY

    def test_id_normalisation(self):
        from repro.bench.figures import load

        assert load("fig1") is load("fig01")
        assert load("Figure 1") is load("fig1")

    def test_unknown_figure(self):
        from repro.bench.figures import load

        with pytest.raises(KeyError):
            load("fig99")

    def test_every_figure_module_importable_with_run(self):
        from repro.bench.figures import ALL_IDS, load

        for figure_id in ALL_IDS:
            assert callable(load(figure_id).run)


class TestCLI:
    def test_table1_via_cli(self, capsys):
        from repro.bench.cli import main

        assert main(["table1"]) == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        # Timing is host state: it goes to stderr, never stdout.
        assert "regenerated" in captured.err
        assert "regenerated" not in captured.out

    def test_unknown_figure_exit_code(self, capsys):
        from repro.bench.cli import main

        assert main(["fig99"]) == 2
