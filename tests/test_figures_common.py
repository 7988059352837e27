"""Tests for the figure table: experiments, the grid, and shared cells."""

import pytest

from repro.bench import figures
from repro.bench.figures import (
    ALL_IDS,
    MICRO_ROWS_RW,
    MICRO_SIZE_RO,
    MULTITHREADED_TPCC,
    TPCB,
    grid,
    run_figure,
    run_figures,
)
from repro.bench.figures.common import (
    MICRO_SIZES,
    MULTITHREADED_SYSTEMS,
    ROWS_SWEEP,
    engine_config_for,
    labels,
)
from repro.bench.parallel import run_cells, workload_spec


class TestConfiguration:
    def test_paper_axes(self):
        assert MICRO_SIZES == ["1MB", "10MB", "10GB", "100GB"]
        assert ROWS_SWEEP == [1, 10, 100]

    def test_multithreaded_excludes_hyper(self):
        assert "hyper" not in MULTITHREADED_SYSTEMS
        assert len(MULTITHREADED_SYSTEMS) == 4

    def test_dbms_m_uses_btree_only_for_tpcc(self):
        """Section 3: hash for micro/TPC-B, B-tree for TPC-C."""
        assert engine_config_for("dbms-m", "tpcc").index_kind == "cc_btree"
        assert engine_config_for("dbms-m", "micro").index_kind is None
        assert engine_config_for("dbms-m", "tpcb").index_kind is None
        assert engine_config_for("voltdb", "tpcc").index_kind is None

    def test_engine_config_always_analytic(self):
        assert engine_config_for("hyper", "micro").materialize_threshold == 0

    def test_labels(self):
        assert labels(["shore-mt", "dbms-m"]) == ["Shore-MT", "DBMS M"]


class TestSweepBuilders:
    """The one grid function over the declared experiments."""

    def test_micro_size_sweep_structure(self):
        keyed = grid(MICRO_SIZE_RO, quick=True)
        assert [(s, x) for s, x, _ in keyed[:4]] == [("Shore-MT", size) for size in MICRO_SIZES]
        assert len(keyed) == 20  # system-major: 5 systems x 4 sizes
        [(system, x, cell)] = grid(
            MICRO_SIZE_RO, quick=True, systems=("hyper",), x_values=("1MB",)
        )
        assert (system, x) == ("HyPer", "1MB")
        assert cell.workload == workload_spec(
            "micro", db_bytes=1 << 20, rows_per_txn=1, read_write=False
        )
        assert 0 < run_cells([cell])[0].ipc < 4

    def test_micro_rows_sweep_structure(self):
        [(system, x, cell)] = grid(
            MICRO_ROWS_RW, quick=True, systems=("voltdb",), x_values=("1",)
        )
        assert (system, x) == ("VoltDB", "1")
        assert dict(cell.workload.params)["read_write"] is True
        assert run_cells([cell])[0].stalls_per_kilo_instruction.total > 0

    def test_tpc_sweep_structure(self):
        [(system, x, cell)] = grid(TPCB, quick=True, systems=("dbms-m",))
        assert (system, x) == ("DBMS M", "TPC-B")
        assert 0 < run_cells([cell])[0].ipc < 4

    def test_multithreaded_grid_runs_four_cores(self):
        keyed = grid(MULTITHREADED_TPCC)
        assert [s for s, _, _ in keyed] == labels(MULTITHREADED_SYSTEMS)
        assert all(cell.spec.n_cores == 4 for _, _, cell in keyed)
        dbms_m = keyed[-1][2]
        assert dbms_m.spec.engine_config == engine_config_for("dbms-m", "tpcc")


@pytest.fixture
def submitted(monkeypatch):
    """Record every cell list handed to run_cells, without simulating."""
    calls = []

    def fake_run_cells(cells):
        calls.append(list(cells))
        return [f"result-{i}" for i in range(len(cells))]

    monkeypatch.setattr(figures, "run_cells", fake_run_cells)
    return calls


class TestSharedCells:
    def test_fig1_to_fig3_submit_each_cell_once(self, submitted):
        run_figures(["fig1", "fig2", "fig3"], quick=True)
        assert [len(cells) for cells in submitted] == [20]  # not 20 + 20 + 5

    def test_all_quick_simulates_106_distinct_cells(self, submitted):
        run_figures(ALL_IDS, quick=True)
        [cells] = submitted
        assert len(cells) == len(set(cells)) == 106  # 254 cells across the views

    @pytest.mark.parametrize(
        "group, figure_id",
        [(["fig1", "fig3"], "fig3"), (["fig4", "fig7"], "fig7")],
        ids=["x-subset", "system-subset"],
    )
    def test_grouped_panels_equal_separate_runs(self, group, figure_id):
        grouped = run_figures(group, quick=True)[group.index(figure_id)]
        assert grouped == run_figure(figure_id, quick=True)
