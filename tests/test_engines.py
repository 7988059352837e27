"""Cross-engine behavioural tests.

Every engine must execute the same transaction bodies with the same
logical outcome — the property that lets the paper run one benchmark
against five systems.
"""

import pytest

from repro.engines.base import UserAbort
from repro.engines.common import TableSpec
from repro.engines.config import EngineConfig
from repro.engines.registry import ALL_SYSTEMS, PAPER_LABELS, canonical_name, make_engine
from repro.storage.record import microbench_schema

N_ROWS = 2000


def build(system, **config_kw):
    config = EngineConfig(**config_kw)
    engine = make_engine(system, config)
    engine.create_table(TableSpec("t", microbench_schema(), N_ROWS, grows=True))
    return engine


@pytest.fixture(params=ALL_SYSTEMS)
def engine(request):
    return build(request.param)


class TestRegistry:
    def test_all_systems_constructible(self, engine):
        assert engine.system in PAPER_LABELS.values()

    def test_aliases(self):
        assert canonical_name("Shore-MT") == "shore-mt"
        assert canonical_name("DBMS_D") == "dbms-d"
        assert canonical_name("volt") == "voltdb"

    def test_unknown_system(self):
        with pytest.raises(KeyError):
            canonical_name("oracle")

    def test_paper_ordering_disk_then_memory(self):
        assert ALL_SYSTEMS == ("shore-mt", "dbms-d", "voltdb", "hyper", "dbms-m")


class TestTransactionSemantics:
    def test_read_prepopulated_row(self, engine):
        rows = []
        engine.execute("p", lambda txn: rows.append(txn.read("t", 123)))
        assert rows[0] == microbench_schema().default_row(123)

    def test_read_missing_key(self, engine):
        rows = []
        engine.execute("p", lambda txn: rows.append(txn.read("t", N_ROWS + 5)))
        assert rows[0] is None

    def test_update_persists_across_transactions(self, engine):
        engine.execute("p", lambda txn: txn.update("t", 7, "value", 4242))
        rows = []
        engine.execute("p", lambda txn: rows.append(txn.read("t", 7)))
        assert rows[0][1] == 4242

    def test_update_callable(self, engine):
        engine.execute("p", lambda txn: txn.update("t", 7, "value", 100))
        engine.execute("p", lambda txn: txn.update("t", 7, "value", lambda v: v + 1))
        rows = []
        engine.execute("p", lambda txn: rows.append(txn.read("t", 7)))
        assert rows[0][1] == 101

    def test_read_your_own_write(self, engine):
        seen = []

        def body(txn):
            txn.update("t", 9, "value", 555)
            seen.append(txn.read("t", 9))

        engine.execute("p", body)
        assert seen[0][1] == 555

    def test_insert_then_read(self, engine):
        def body(txn):
            txn.insert("t", (99999, 1), key=99999)

        engine.execute("p", body)
        rows = []
        engine.execute("p", lambda txn: rows.append(txn.read("t", 99999)))
        assert rows[0] == (99999, 1)

    def test_update_missing_key_raises(self, engine):
        with pytest.raises(KeyError):
            engine.execute("p", lambda txn: txn.update("t", N_ROWS + 77, "value", 1))

    def test_scan_ordered(self, engine):
        got = []
        engine.execute("p", lambda txn: got.extend(txn.scan("t", 100, 5)))
        assert [k for k, _ in got] == [100, 101, 102, 103, 104]

    def test_delete_removes_key(self, engine):
        ok = []
        engine.execute("p", lambda txn: ok.append(txn.delete("t", 55)))
        assert ok == [True]
        rows = []
        engine.execute("p", lambda txn: rows.append(txn.read("t", 55)))
        assert rows[0] is None

    def test_delete_missing(self, engine):
        ok = []
        engine.execute("p", lambda txn: ok.append(txn.delete("t", N_ROWS + 1)))
        assert ok == [False]

    def test_user_abort_not_retried(self, engine):
        calls = []

        def body(txn):
            calls.append(1)
            raise UserAbort("1% rollback")

        engine.execute("p", body)
        assert len(calls) == 1
        assert engine.stats.aborts == 1


class TestTraces:
    def test_execute_returns_nonempty_trace(self, engine):
        trace = engine.execute("p", lambda txn: txn.read("t", 1))
        assert len(trace) > 0
        assert trace.instructions > 0

    def test_trace_has_instruction_and_data_events(self, engine):
        trace = engine.execute("p", lambda txn: txn.update("t", 1, "value", 2))
        kinds = {k for k, _, _ in trace.events()}
        assert 0 in kinds           # IFETCH (events() expands batched runs)
        assert kinds & {1, 2, 3}    # data traffic

    def test_repeated_procedure_same_code_lines(self, engine):
        t1 = engine.execute("p", lambda txn: txn.read("t", 1))
        code1 = {a for k, a, _ in t1.events() if k == 0}
        t2 = engine.execute("p", lambda txn: txn.read("t", 1))
        code2 = {a for k, a, _ in t2.events() if k == 0}
        assert code1 == code2  # instruction locality across transactions

    def test_stats_track_commits_and_ops(self, engine):
        engine.execute("p", lambda txn: txn.read("t", 1))
        assert engine.stats.commits == 1
        assert engine.stats.operations >= 1

    def test_hot_regions_exist(self, engine):
        regions = engine.hot_regions()
        assert regions and all(n > 0 for _, n in regions)

    def test_describe_lists_modules(self, engine):
        text = engine.describe()
        assert engine.system in text
        assert "KB" in text


class TestInstructionFootprints:
    """Paper Section 2.1/4: component structure differs where stated."""

    def test_dbms_d_has_the_largest_total_footprint(self):
        totals = {}
        for system in ALL_SYSTEMS:
            engine = build(system)
            totals[system] = engine.layout.total_footprint_bytes()
        assert totals["dbms-d"] == max(totals.values())

    def test_shore_mt_is_storage_manager_only(self):
        engine = build("shore-mt")
        outer = engine.layout.total_footprint_bytes("other")
        total = engine.layout.total_footprint_bytes()
        assert outer / total < 0.15

    def test_hyper_compiled_footprint_is_tiny(self):
        engine = build("hyper")
        engine.execute("p", lambda txn: txn.read("t", 1))
        compiled = engine.layout.module(engine.compiled_module("p"))
        assert compiled.footprint_bytes < 8 * 1024

    def test_per_txn_instruction_ordering(self):
        """DBMS D >> Shore-MT > DBMS M/VoltDB >> HyPer (Figures 2-3)."""
        instr = {}
        for system in ALL_SYSTEMS:
            engine = build(system)
            trace = engine.execute("p", lambda txn: txn.read("t", 1))
            instr[system] = trace.instructions
        assert instr["dbms-d"] > instr["shore-mt"]
        assert instr["shore-mt"] > instr["hyper"]
        assert instr["voltdb"] > instr["hyper"]
        assert instr["hyper"] < 4000
