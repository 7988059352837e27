"""Log-replay recovery tests: the WAL captures exactly the committed state."""

import random

import pytest

from repro.engines.base import UserAbort
from repro.engines.common import TableSpec
from repro.engines.registry import make_engine, retained_log
from repro.faults import FaultInjector, FaultSpec, SimulatedCrash, WAL_AFTER_APPEND
from repro.storage.recovery import (
    ABORTED,
    CHECKPOINT,
    COMMITTED,
    analyse,
    replay,
    restart,
    take_checkpoint,
    verify_against_engine,
)
from repro.storage.record import microbench_schema
from repro.storage.wal import WriteAheadLog, torn_copy
from repro.storage.address_space import DataAddressSpace

N_ROWS = 500


def shore_with_log(system="shore-mt"):
    engine = make_engine(system)
    engine.wal.retain_all = True
    engine.create_table(TableSpec("t", microbench_schema(), N_ROWS, grows=True))
    return engine


class TestAnalysis:
    def test_status_classification(self, space):
        log = WriteAheadLog("w", space, retain_all=True)
        log.append(1, "begin", 8)
        log.append(1, "commit", 8)
        log.append(2, "begin", 8)
        log.append(2, "abort", 8)
        log.append(3, "begin", 8)
        status = analyse(log.records)
        assert status[1] == COMMITTED
        assert status[2] == ABORTED
        assert status[3] == "in-flight"

    def test_replay_requires_retained_log(self, space):
        log = WriteAheadLog("w", space)
        with pytest.raises(ValueError):
            replay(log)


class TestReplay:
    def test_committed_update_redone(self):
        engine = shore_with_log()
        engine.execute("p", lambda txn: txn.update("t", 5, "value", 777))
        state = replay(engine.wal)
        assert state.row("t", 5)[1] == 777
        assert state.redo_applied >= 1

    def test_aborted_update_skipped(self):
        engine = shore_with_log()

        def doomed(txn):
            txn.update("t", 5, "value", 999)
            raise UserAbort("rollback")

        engine.execute("p", doomed)
        state = replay(engine.wal)
        assert state.row("t", 5) is None  # nothing committed for row 5
        assert state.skipped >= 1

    def test_last_committed_image_wins(self):
        engine = shore_with_log()
        for value in (1, 2, 3):
            engine.execute("p", lambda txn, v=value: txn.update("t", 9, "value", v))
        state = replay(engine.wal)
        assert state.row("t", 9)[1] == 3

    def test_insert_and_delete_tracked(self):
        engine = shore_with_log()
        engine.execute("p", lambda txn: txn.insert("t", (9000, 1), key=9000))
        engine.execute("p", lambda txn: txn.delete("t", 7))
        state = replay(engine.wal)
        assert state.key_present("t", 9000) is True
        assert state.key_present("t", 7) is False
        assert state.key_present("t", 8) is None  # untouched: log can't know

    def test_in_flight_transaction_skipped(self):
        engine = shore_with_log()
        txn = engine.begin()  # crash before commit
        txn.update("t", 11, "value", 123)
        state = replay(engine.wal)
        assert state.row("t", 11) is None


class TestEndToEnd:
    @pytest.mark.parametrize("system", ["shore-mt", "dbms-d"])
    def test_recovered_state_matches_engine(self, system):
        """Random committed + aborted work; log replay must agree with
        the live engine on every committed effect."""
        engine = shore_with_log(system)
        rng = random.Random(42)
        next_key = N_ROWS + 100
        for i in range(60):
            kind = rng.choice(["update", "insert", "delete", "user_abort"])
            key = rng.randrange(N_ROWS)
            if kind == "update":
                engine.execute(
                    "p", lambda txn, k=key, v=i: txn.update("t", k, "value", v)
                )
            elif kind == "insert":
                engine.execute(
                    "p", lambda txn, k=next_key, v=i: txn.insert("t", (k, v), key=k)
                )
                next_key += 1
            elif kind == "delete":
                engine.execute("p", lambda txn, k=key: txn.delete("t", k))
            else:
                def doomed(txn, k=key):
                    txn.update("t", k, "value", -1)
                    raise UserAbort("rollback")

                engine.execute("p", doomed)
        state = replay(engine.wal)
        problems = verify_against_engine(state, engine)
        assert problems == []

    def test_clr_for_committed_txn_rejected(self, space):
        log = WriteAheadLog("w", space, retain_all=True)
        log.append(1, "clr", 8, payload=("update", "t", 0, (0, 0)))
        log.append(1, "commit", 8)
        with pytest.raises(ValueError):
            replay(log)


def engine_with_log(system):
    engine = make_engine(system)
    log = engine.recovery_log()
    log.retain_all = True
    engine.create_table(TableSpec("t", microbench_schema(), N_ROWS, grows=True))
    return engine


class TestAllEngines:
    """Every engine's recovery log round-trips through crash + restore."""

    @pytest.mark.parametrize(
        "system", ["shore-mt", "dbms-d", "voltdb", "hyper", "dbms-m"]
    )
    def test_crash_restore_roundtrip(self, system):
        engine = engine_with_log(system)
        rng = random.Random(7)
        next_key = N_ROWS + 50
        for i in range(40):
            kind = rng.choice(["update", "insert", "delete"])
            key = rng.randrange(N_ROWS)
            if kind == "update":
                engine.execute(
                    "p", lambda txn, k=key, v=i: txn.update("t", k, "value", v)
                )
            elif kind == "insert":
                engine.execute(
                    "p", lambda txn, k=next_key, v=i: txn.insert("t", (k, v), key=k)
                )
                next_key += 1
            else:
                engine.execute("p", lambda txn, k=key: txn.delete("t", k))
        # A transaction in flight at the crash, with its records durable.
        engine.begin().update("t", 11, "value", -1)
        log = engine.recovery_log()
        log.force()
        image = log.crash_image()

        def boot():
            fresh = engine_with_log(system)
            return fresh, fresh.recovery_log()

        for injector in (None, FaultInjector(seed=1)):
            state, fresh, fresh_log, problems = restart(image, boot, engine, injector)
            assert problems == []
            # Single-node log: no in-doubt 2PC records to carry forward.
            assert state.active_records == []
            assert fresh_log.records[-1].kind == CHECKPOINT
            assert fresh._next_txn_id > max(state.txn_status)
            assert fresh._next_txn_id >= engine._next_txn_id
            assert fresh.injector is injector
            assert fresh_log.injector is injector
            # The recovered engine agrees with the survivor row for row.
            for (table, row_id), values in state.rows.items():
                assert fresh.committed_row(table, row_id) == values

    def test_recovered_digest_deterministic(self):
        def digest():
            engine = engine_with_log("voltdb")
            for i in range(10):
                engine.execute(
                    "p", lambda txn, v=i: txn.update("t", v, "value", v * 3)
                )
            engine.recovery_log().force()
            return replay(engine.recovery_log()).digest()

        assert digest() == digest()


class TestRetainedLog:
    def test_engine_without_a_log_is_rejected_by_name(self, monkeypatch):
        engine = make_engine("hyper")
        monkeypatch.setattr(engine, "recovery_log", lambda: None)
        with pytest.raises(ValueError, match="HyPer exposes no recovery log"):
            retained_log(engine)


class TestMidCheckpointCrash:
    """A crash landing inside a checkpoint record must not poison replay:
    the torn checkpoint is truncated away and recovery proceeds from the
    previous (intact) checkpoint."""

    def _engine_with_two_checkpoint_attempts(self):
        engine = engine_with_log("shore-mt")
        for i in range(8):
            engine.execute("p", lambda txn, v=i: txn.update("t", v, "value", v + 100))
        log = engine.recovery_log()
        first = take_checkpoint(log)
        for i in range(8, 16):
            engine.execute("p", lambda txn, v=i: txn.update("t", v, "value", v + 100))
        log.force()
        return engine, log, first

    def test_torn_checkpoint_record_falls_back_to_previous(self):
        engine, log, first = self._engine_with_two_checkpoint_attempts()
        second = take_checkpoint(log)
        # The crash tore the second checkpoint's tail mid-write.
        index = next(i for i, r in enumerate(log.records) if r.lsn == second.lsn)
        log.records[index] = torn_copy(second)
        state = replay(log)
        assert state.truncated_records >= 1  # the torn record is gone
        assert state.checkpoint_lsn == first.lsn  # fell back one checkpoint
        # Every commit before the torn record is still recovered.
        for i in range(16):
            assert state.row("t", i)[1] == i + 100
        assert verify_against_engine(state, engine) == []

    def test_crash_during_checkpoint_append_recovers_from_previous(self):
        engine, log, first = self._engine_with_two_checkpoint_attempts()
        # Die right after the checkpoint record lands in the buffer —
        # before write_checkpoint's force makes it durable.
        log.injector = FaultInjector(
            [FaultSpec(WAL_AFTER_APPEND, at_hit=1)], seed=1
        )
        with pytest.raises(SimulatedCrash):
            take_checkpoint(log)
        log.injector = None
        state = replay(log.crash_image())  # unflushed tail lost wholesale
        assert state.checkpoint_lsn == first.lsn
        for i in range(16):
            assert state.row("t", i)[1] == i + 100
        assert verify_against_engine(state, engine) == []

    def test_truncating_checkpoint_tear_loses_nothing_before_it(self):
        engine, log, _ = self._engine_with_two_checkpoint_attempts()
        second = take_checkpoint(log, truncate=True)
        assert log.records[0].kind == CHECKPOINT
        index = next(i for i, r in enumerate(log.records) if r.lsn == second.lsn)
        assert index == 0  # truncation left the checkpoint at the head
        log.records[index] = torn_copy(second)
        state = replay(log)
        # The only checkpoint is torn: replay starts from nothing and
        # must recover nothing — but not crash or invent state.
        assert state.checkpoint_lsn is None
        assert state.rows == {}
