"""Integration tests: the paper's qualitative claims must hold.

These run real (quick-budget) experiment cells and assert the *shapes*
the paper reports — the acceptance criteria of EXPERIMENTS.md.  They are
the slowest tests in the suite (a few seconds each).
"""

import pytest

from repro.bench.figures.common import TPC_DB_BYTES, engine_config_for, run_cell
from repro.engines.config import EngineConfig
from repro.workloads.microbench import MicroBenchmark
from repro.workloads.tpcb import TPCB


def micro(db_bytes=TPC_DB_BYTES, rows=1, rw=False):
    return lambda: MicroBenchmark(db_bytes=db_bytes, rows_per_txn=rows, read_write=rw)


@pytest.fixture(scope="module")
def cells():
    """One measured cell per (system, size-class) pair, shared."""
    out = {}
    for system in ("shore-mt", "dbms-d", "voltdb", "hyper", "dbms-m"):
        out[system, "small"] = run_cell(system, micro(db_bytes=10 << 20), quick=True)
        out[system, "big"] = run_cell(system, micro(), quick=True)
    return out


class TestHeadlineClaims:
    def test_ipc_barely_reaches_one_on_a_four_wide_machine(self, cells):
        """Abstract: IPC barely reaches 1 (HyPer-in-LLC is the exception)."""
        for (system, size), result in cells.items():
            if system == "hyper" and size == "small":
                continue
            assert result.ipc < 1.25, (system, size, result.ipc)

    def test_more_than_half_the_cycles_are_memory_stalls(self, cells):
        from repro.core.metrics import memory_stall_fraction

        for (system, size), result in cells.items():
            if system == "hyper" and size == "small":
                continue
            assert memory_stall_fraction(result.counters) > 0.4, (system, size)

    def test_l1i_dominates_for_everyone_but_hyper(self, cells):
        """Figure 2: instruction stalls (mainly L1I) dominate."""
        for system in ("shore-mt", "dbms-d", "voltdb", "dbms-m"):
            b = cells[system, "big"].stalls_per_kilo_instruction
            assert b.l1i == max(b.as_dict().values()), system

    def test_hyper_is_data_dominated(self, cells):
        b = cells["hyper", "big"].stalls_per_kilo_instruction
        assert b.llcd == max(b.as_dict().values())
        assert b.l1i < 20

    def test_hyper_highest_ipc_when_data_fits_llc(self, cells):
        hyper = cells["hyper", "small"].ipc
        assert hyper > 1.8
        for system in ("shore-mt", "dbms-d", "voltdb", "dbms-m"):
            assert hyper > 1.8 * cells[system, "small"].ipc, system

    def test_hyper_lowest_ipc_when_data_exceeds_llc(self, cells):
        hyper = cells["hyper", "big"].ipc
        for system in ("shore-mt", "dbms-d", "voltdb", "dbms-m"):
            assert hyper < cells[system, "big"].ipc, system

    def test_hyper_llcd_several_times_everyone_else(self, cells):
        """Section 4.1.2: 5-10x more data stalls per kI at large sizes."""
        hyper = cells["hyper", "big"].stalls_per_kilo_instruction.llcd
        for system in ("shore-mt", "dbms-d", "voltdb", "dbms-m"):
            other = cells[system, "big"].stalls_per_kilo_instruction.llcd
            assert hyper > 3 * other, system

    def test_dbms_d_highest_instruction_stalls(self, cells):
        values = {
            system: cells[system, "big"].stalls_per_kilo_instruction.instruction_total
            for system in ("shore-mt", "dbms-d", "voltdb", "hyper", "dbms-m")
        }
        assert values["dbms-d"] == max(values.values())

    def test_shore_mt_instruction_stalls_below_dbms_d(self, cells):
        """Section 4.1.2: no SQL layers in Shore-MT."""
        shore = cells["shore-mt", "big"].stalls_per_kilo_instruction.instruction_total
        dbmsd = cells["dbms-d", "big"].stalls_per_kilo_instruction.instruction_total
        assert shore < 0.75 * dbmsd


class TestPerTransaction:
    def test_shore_mt_highest_llc_data_stalls_per_txn(self, cells):
        """Figure 3: the non-cache-conscious index."""
        shore = cells["shore-mt", "big"].stalls_per_transaction.llcd
        for system in ("dbms-d", "voltdb", "hyper", "dbms-m"):
            assert shore > cells[system, "big"].stalls_per_transaction.llcd, system

    def test_hyper_lowest_total_stalls_per_txn(self, cells):
        hyper = cells["hyper", "big"].stalls_per_transaction.total
        for system in ("shore-mt", "dbms-d", "voltdb", "dbms-m"):
            assert hyper < cells[system, "big"].stalls_per_transaction.total, system

    def test_dbms_m_l1i_above_other_in_memory(self, cells):
        """Figure 3: DBMS M's legacy code."""
        dbmsm = cells["dbms-m", "big"].stalls_per_transaction.l1i
        assert dbmsm > cells["voltdb", "big"].stalls_per_transaction.l1i
        assert dbmsm > cells["hyper", "big"].stalls_per_transaction.l1i


class TestWorkPerTransaction:
    def test_instruction_stalls_per_ki_decrease_with_rows(self):
        """Figure 5, all systems."""
        for system in ("shore-mt", "voltdb", "dbms-m"):
            one = run_cell(system, micro(rows=1), quick=True)
            hundred = run_cell(system, micro(rows=100), quick=True)
            assert (
                hundred.stalls_per_kilo_instruction.instruction_total
                < one.stalls_per_kilo_instruction.instruction_total
            ), system

    def test_data_stalls_per_txn_grow_with_rows(self):
        """Figure 6: LLC-D roughly linear in rows."""
        for system in ("shore-mt", "hyper"):
            one = run_cell(system, micro(rows=1), quick=True)
            hundred = run_cell(system, micro(rows=100), quick=True)
            ratio = (
                hundred.stalls_per_transaction.llcd / one.stalls_per_transaction.llcd
            )
            assert 30 < ratio < 300, (system, ratio)

    def test_in_memory_ipc_decreases_with_rows(self):
        """Figure 4: VoltDB and HyPer decline all the way to 100 rows;
        DBMS M's decline shows while its legacy per-statement segments
        still miss (by 10 rows) — at 100 rows its compiled/hash marginal
        path recovers, a documented deviation (EXPERIMENTS.md)."""
        for system in ("voltdb", "hyper"):
            one = run_cell(system, micro(rows=1), quick=True)
            hundred = run_cell(system, micro(rows=100), quick=True)
            assert hundred.ipc < one.ipc + 0.02, system
        one = run_cell("dbms-m", micro(rows=1), quick=True)
        ten = run_cell("dbms-m", micro(rows=10), quick=True)
        assert ten.ipc < one.ipc + 0.02


class TestCompilationAndIndexes:
    def test_compilation_cuts_instruction_stalls(self):
        """Figure 13: ~50% reduction (we accept 25%+)."""
        on = run_cell(
            "dbms-m", micro(rows=10), quick=True,
            engine_config=EngineConfig(index_kind="hash", compilation=True),
        )
        off = run_cell(
            "dbms-m", micro(rows=10), quick=True,
            engine_config=EngineConfig(index_kind="hash", compilation=False),
        )
        on_i = on.stalls_per_kilo_instruction.instruction_total
        off_i = off.stalls_per_kilo_instruction.instruction_total
        assert on_i < 0.75 * off_i

    def test_btree_data_stalls_exceed_hash(self):
        """Figure 13: 2-4x more LLC data stalls for the B-tree."""
        hash_cell = run_cell(
            "dbms-m", micro(rows=10), quick=True,
            engine_config=EngineConfig(index_kind="hash"),
        )
        btree_cell = run_cell(
            "dbms-m", micro(rows=10), quick=True,
            engine_config=EngineConfig(index_kind="cc_btree"),
        )
        ratio = (
            btree_cell.stalls_per_kilo_instruction.llcd
            / hash_cell.stalls_per_kilo_instruction.llcd
        )
        assert 1.5 < ratio < 5.0, ratio


class TestTPCB:
    def test_tpcb_ipc_above_micro_for_hyper(self):
        """Figures 1 vs 8: TPC-B's data locality rescues HyPer."""
        micro_cell = run_cell("hyper", micro(), quick=True)
        tpcb_cell = run_cell(
            "hyper", lambda: TPCB(db_bytes=TPC_DB_BYTES), quick=True,
            engine_config=engine_config_for("hyper", "tpcb"),
        )
        assert tpcb_cell.ipc > 1.5 * micro_cell.ipc
