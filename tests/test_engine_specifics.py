"""Per-engine mechanism tests: locking, MVCC, partitioning, compilation."""

import pytest

from repro.engines.base import TransactionAborted
from repro.engines.common import TableSpec
from repro.engines.config import EngineConfig
from repro.engines.dbms_m import DBMSM
from repro.engines.hyper import HyPerEngine
from repro.engines.registry import make_engine
from repro.engines.shore_mt import ShoreMT
from repro.engines.voltdb import VoltDBEngine
from repro.storage.lock_manager import LockMode
from repro.storage.record import microbench_schema

SPEC = TableSpec("t", microbench_schema(), 2000, grows=True)


def build(cls_or_name, **kw):
    config = EngineConfig(**kw)
    engine = (
        make_engine(cls_or_name, config)
        if isinstance(cls_or_name, str)
        else cls_or_name(config)
    )
    engine.create_table(SPEC)
    return engine


class TestShoreMTLocking:
    def test_two_phase_locking_within_txn(self):
        engine = build(ShoreMT)
        txn = engine.begin()
        txn.read("t", 5)
        assert engine.locks.holds(txn.txn_id, ("row", "t", 5)) == LockMode.S
        assert engine.locks.holds(txn.txn_id, ("table", "t")) == LockMode.IS
        txn.commit()
        assert engine.locks.active_locks == 0

    def test_conflicting_writers_abort(self):
        engine = build(ShoreMT)
        t1 = engine.begin()
        t1.update("t", 5, "value", 1)
        t2 = engine.begin()
        with pytest.raises(TransactionAborted):
            t2.update("t", 5, "value", 2)
        t2.abort()
        t1.commit()
        assert engine.locks.active_locks == 0

    def test_readers_do_not_block_readers(self):
        engine = build(ShoreMT)
        t1, t2 = engine.begin(), engine.begin()
        t1.read("t", 5)
        t2.read("t", 5)  # no exception
        t1.commit()
        t2.commit()

    def test_abort_rolls_back_locks(self):
        engine = build(ShoreMT)
        t1 = engine.begin()
        t1.update("t", 5, "value", 9)
        t1.abort()
        t2 = engine.begin()
        t2.update("t", 5, "value", 10)  # lock is free again
        t2.commit()

    def test_wal_records_written(self):
        engine = build(ShoreMT)
        before = engine.wal.next_lsn
        engine.execute("p", lambda txn: txn.update("t", 1, "value", 2))
        assert engine.wal.next_lsn > before

    def test_buffer_pool_warms_up(self):
        engine = build(ShoreMT)
        for _ in range(3):
            engine.execute("p", lambda txn: txn.read("t", 42))
        assert engine.bpool.hit_ratio > 0.3


class TestDBMSMOptimisticMVCC:
    def test_write_set_buffered_until_commit(self):
        engine = build(DBMSM)
        txn = engine.begin()
        txn.update("t", 5, "value", 777)
        # Another reader before commit sees the old value.
        other = engine.begin()
        assert other.read("t", 5)[1] != 777
        other.commit()
        txn.commit()
        final = engine.begin()
        assert final.read("t", 5)[1] == 777
        final.commit()

    def test_first_committer_wins(self):
        engine = build(DBMSM)
        t1 = engine.begin()
        t1.update("t", 5, "value", 1)
        t2 = engine.begin()
        t2.update("t", 5, "value", 2)
        t1.commit()
        with pytest.raises(TransactionAborted):
            t2.commit()

    def test_execute_retries_validation_failures(self):
        engine = build(DBMSM)
        # Interleave by committing a conflicting txn from inside the body
        # exactly once.
        state = {"sabotaged": False}

        def body(txn):
            value = txn.read("t", 5)[1]
            if not state["sabotaged"]:
                state["sabotaged"] = True
                saboteur = engine.begin()
                saboteur.update("t", 5, "value", -1)
                saboteur.commit()
            txn.update("t", 5, "value", value + 1)

        engine.execute("p", body)
        assert engine.stats.commits == 1  # the retried attempt
        assert engine.stats.aborts == 1
        final = engine.begin()
        assert final.read("t", 5)[1] == 0  # -1 (saboteur) + 1 (retry)
        final.commit()

    def test_compilation_toggle(self):
        compiled = build(DBMSM)
        interpreted = build(DBMSM, compilation=False)
        assert compiled.compiled and not interpreted.compiled
        tc = compiled.execute("p", lambda txn: txn.read("t", 1))
        code_c = sum(1 for k, _, _ in tc.events() if k == 0)
        ti = interpreted.execute("p", lambda txn: txn.read("t", 1))
        code_i = sum(1 for k, _, _ in ti.events() if k == 0)
        assert code_i > code_c  # interpreter fetches more code

    def test_index_choice(self):
        hash_engine = build(DBMSM)
        btree_engine = build(DBMSM, index_kind="cc_btree")
        from repro.storage.layout_models import AnalyticBTree, AnalyticHash

        assert isinstance(hash_engine.table("t")._parts[0][1], AnalyticHash)
        assert isinstance(btree_engine.table("t")._parts[0][1], AnalyticBTree)


class TestVoltDBPartitioning:
    def test_partitioned_tables_when_configured(self):
        engine = build(VoltDBEngine, n_partitions=4)

        assert engine.table("t").n_partitions == 4
        assert engine.table("t").partition_of(0) == 0
        assert engine.table("t").partition_of(1999) == 3

    def test_single_partition_by_default(self):
        engine = build(VoltDBEngine)

        assert engine.table("t").n_partitions == 1

    def test_multipartition_coordination_costs_instructions(self):
        sited = build(VoltDBEngine)
        unsited = build(VoltDBEngine, single_sited=False)
        t_sited = sited.execute("p", lambda txn: txn.read("t", 1))
        t_unsited = unsited.execute("p", lambda txn: txn.read("t", 1))
        assert t_unsited.instructions > t_sited.instructions * 1.15

    def test_replicated_table_not_partitioned(self):
        engine = VoltDBEngine(EngineConfig(n_partitions=4))
        engine.create_table(TableSpec("item", microbench_schema(), 100, replicated=True))

        assert engine.table("item").n_partitions == 1

    def test_undo_log_on_update(self):
        engine = build(VoltDBEngine)
        before = engine.undo_log.next_lsn
        engine.execute("p", lambda txn: txn.update("t", 1, "value", 2))
        assert engine.undo_log.next_lsn > before

    def test_read_past_the_end_of_a_partitioned_table(self):
        """An empty trailing partition holds no rows."""
        engine = VoltDBEngine(EngineConfig(n_partitions=4))
        engine.create_table(TableSpec("t", microbench_schema(), 9))
        txn = engine.begin()
        assert txn.read("t", 8) is not None
        assert txn.read("t", 9) is None
        txn.commit()


class TestHyPerCompilation:
    def test_compiled_module_cached_per_procedure(self):
        engine = build(HyPerEngine)
        a1 = engine.compiled_module("proc_a")
        a2 = engine.compiled_module("proc_a")
        b = engine.compiled_module("proc_b")
        assert a1 == a2
        assert a1 != b

    def test_no_locks_no_buffer_pool(self):
        engine = build(HyPerEngine)
        assert not hasattr(engine, "locks")
        assert not hasattr(engine, "bpool")

    def test_redo_log_written(self):
        engine = build(HyPerEngine)
        before = engine.redo_log.next_lsn
        engine.execute("p", lambda txn: txn.update("t", 1, "value", 2))
        assert engine.redo_log.next_lsn > before

    def test_instruction_stream_is_compiled_module(self):
        engine = build(HyPerEngine)
        trace = engine.execute("p", lambda txn: txn.read("t", 1))
        compiled = engine.compiled_module("p")
        code_mods = {m for k, _, m in trace.events() if k == 0}
        assert compiled in code_mods
