"""Fault-injection subsystem tests.

Covers the injector's scheduling semantics, the hardened WAL (checksums,
crash images, size validation), recovery's torn-tail truncation /
checkpoint seeding / undo pass, transaction-outcome accounting, and the
runner's commits-only transaction counting.
"""

import random

import pytest

from repro.core.trace import AccessTrace
from repro.engines.base import (
    AbortReason,
    BACKOFF_BASE_CYCLES,
    COMMITTED,
    RETRIES_EXHAUSTED,
    TransactionAborted,
    USER_ABORTED,
    UserAbort,
)
from repro.engines.common import TableSpec
from repro.engines.config import EngineConfig
from repro.engines.registry import make_engine
from repro.faults import (
    ABORT,
    COORDINATOR_CRASH,
    CRASH,
    FaultInjector,
    FaultSpec,
    InjectedAbort,
    NET_DROP,
    NET_SEND,
    PARTICIPANT_CRASH,
    PREPARE_STALL,
    SimulatedCrash,
    TPC_COORDINATOR,
    TPC_PARTICIPANT,
    TPC_PREPARE,
    TXN_BODY,
    WAL_BEFORE_APPEND,
    WAL_GROUP_COMMIT,
)
from repro.storage.record import microbench_schema
from repro.storage.recovery import (
    CHECKPOINT,
    replay,
    restore_engine,
    take_checkpoint,
    valid_prefix,
    verify_against_engine,
)
from repro.storage.wal import LogImage, WriteAheadLog, torn_copy

N_ROWS = 500


def shore_with_log(system="shore-mt", **config):
    engine = make_engine(system, EngineConfig(**config))
    log = engine.recovery_log()
    log.retain_all = True
    engine.create_table(TableSpec("t", microbench_schema(), N_ROWS, grows=True))
    return engine


class TestFaultSpec:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultSpec("wal.nonsense", at_hit=1)

    def test_abort_only_at_rollbackable_points(self):
        with pytest.raises(ValueError, match="abort faults"):
            FaultSpec(WAL_BEFORE_APPEND, kind=ABORT, at_hit=1)
        FaultSpec(TXN_BODY, kind=ABORT, at_hit=1)  # fine

    def test_needs_trigger(self):
        with pytest.raises(ValueError, match="at_hit"):
            FaultSpec(TXN_BODY)
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec(TXN_BODY, at_hit=0)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(TXN_BODY, kind="explode", at_hit=1)


class TestInjector:
    def test_at_hit_fires_exactly_there(self):
        inj = FaultInjector([FaultSpec(TXN_BODY, at_hit=3)])
        inj.fire(TXN_BODY)
        inj.fire(TXN_BODY)
        with pytest.raises(SimulatedCrash) as exc:
            inj.fire(TXN_BODY)
        assert exc.value.point == TXN_BODY
        assert exc.value.hit == 3

    def test_crash_disarms(self):
        inj = FaultInjector([FaultSpec(TXN_BODY, at_hit=1)])
        with pytest.raises(SimulatedCrash):
            inj.fire(TXN_BODY)
        assert inj.crashed
        inj.fire(TXN_BODY)  # dead process: silent
        assert len(inj.fired) == 1

    def test_probability_deterministic_per_seed(self):
        def pattern(seed):
            inj = FaultInjector(
                [FaultSpec(TXN_BODY, kind=ABORT, probability=0.3, times=-1)], seed=seed
            )
            hits = []
            for i in range(50):
                try:
                    inj.fire(TXN_BODY)
                except InjectedAbort:
                    hits.append(i)
            return hits

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)

    def test_times_bounds_firing(self):
        inj = FaultInjector([FaultSpec(TXN_BODY, kind=ABORT, probability=1.0, times=2)])
        for _ in range(2):
            with pytest.raises(InjectedAbort):
                inj.fire(TXN_BODY)
        inj.fire(TXN_BODY)  # budget spent
        assert len(inj.fired) == 2

    def test_suspend_aborts_blocks_aborts_not_crashes(self):
        inj = FaultInjector(
            [
                FaultSpec(TXN_BODY, kind=ABORT, probability=1.0, times=-1),
                FaultSpec(TXN_BODY, at_hit=2),
            ]
        )
        with inj.suspend_aborts():
            inj.fire(TXN_BODY)  # abort suppressed
            with pytest.raises(SimulatedCrash):
                inj.fire(TXN_BODY)  # crash still fires

    def test_injected_abort_is_retryable_abort(self):
        exc = InjectedAbort(TXN_BODY, 1)
        assert isinstance(exc, TransactionAborted)
        assert exc.reason == AbortReason.INJECTED


class TestPerKindStreams:
    """Each fault kind draws from its own (seed, kind) child stream."""

    def test_streams_are_seeded_per_kind(self):
        inj, twin, other = (FaultInjector([], seed=5) for _ in range(3))
        assert inj.stream(CRASH) is inj.stream(CRASH)  # cached
        a = [inj.stream(ABORT).random() for _ in range(5)]
        b = [twin.stream(ABORT).random() for _ in range(5)]
        assert a == b  # same (seed, kind) -> same sequence
        assert a != [other.stream(CRASH).random() for _ in range(5)]  # kinds isolated

    def test_network_spec_does_not_shift_abort_schedule(self):
        """Adding network faults must not disturb existing kinds' draws —
        the property that keeps PR-1-era schedules stable."""

        def abort_hits(schedule):
            inj = FaultInjector(schedule, seed=11)
            hits = []
            for i in range(80):
                try:
                    inj.fire(TXN_BODY)
                except InjectedAbort:
                    hits.append(i)
                inj.network_fault(NET_SEND)
            return hits

        base = [FaultSpec(TXN_BODY, kind=ABORT, probability=0.25, times=-1)]
        with_net = base + [FaultSpec(NET_SEND, kind=NET_DROP, probability=0.5, times=-1)]
        assert abort_hits(base) == abort_hits(with_net)

    def test_schedule_digest_pinned(self):
        """Regression pin: this exact seed/schedule produced this fired
        sequence when per-kind streams landed.  A change to stream
        seeding or draw order will break this test — deliberately."""
        inj = FaultInjector(
            [
                FaultSpec(TXN_BODY, kind=ABORT, probability=0.2, times=-1),
                FaultSpec(WAL_GROUP_COMMIT, at_hit=3),
            ],
            seed=42,
        )
        for _ in range(60):
            try:
                inj.fire(TXN_BODY)
            except InjectedAbort:
                pass
        for _ in range(3):
            try:
                inj.fire(WAL_GROUP_COMMIT)
            except SimulatedCrash:
                pass
        assert inj.schedule_digest() == 2669772192

    def test_2pc_kinds_present_but_idle_keep_digest_pinned(self):
        """The 2PC fault kinds ride their own child streams: scheduling
        them (without their points ever being hit) must leave the
        PR-1-era pinned digest byte-identical."""
        inj = FaultInjector(
            [
                FaultSpec(TXN_BODY, kind=ABORT, probability=0.2, times=-1),
                FaultSpec(WAL_GROUP_COMMIT, at_hit=3),
                FaultSpec(TPC_COORDINATOR, kind=COORDINATOR_CRASH, at_hit=99),
                FaultSpec(TPC_PARTICIPANT, kind=PARTICIPANT_CRASH, at_hit=99),
                FaultSpec(TPC_PREPARE, kind=PREPARE_STALL, at_hit=99),
            ],
            seed=42,
        )
        for _ in range(60):
            try:
                inj.fire(TXN_BODY)
            except InjectedAbort:
                pass
        for _ in range(3):
            try:
                inj.fire(WAL_GROUP_COMMIT)
            except SimulatedCrash:
                pass
        assert inj.schedule_digest() == 2669772192

    def test_2pc_kinds_appear_in_digest_when_fired(self):
        """Once a 2PC fault actually fires it must be part of the digest."""
        base = FaultInjector([FaultSpec(TXN_BODY, kind=ABORT, at_hit=1)])
        with pytest.raises(InjectedAbort):
            base.fire(TXN_BODY)
        twopc = FaultInjector(
            [
                FaultSpec(TXN_BODY, kind=ABORT, at_hit=1),
                FaultSpec(TPC_COORDINATOR, kind=COORDINATOR_CRASH, at_hit=1),
            ]
        )
        with pytest.raises(InjectedAbort):
            twopc.fire(TXN_BODY)
        with pytest.raises(SimulatedCrash):
            twopc.fire(TPC_COORDINATOR)
        assert twopc.schedule_digest() != base.schedule_digest()

    def test_network_fault_returns_kind_without_raising(self):
        inj = FaultInjector([FaultSpec(NET_SEND, kind=NET_DROP, at_hit=2)])
        assert inj.network_fault(NET_SEND) is None
        assert inj.network_fault(NET_SEND) == NET_DROP
        assert inj.network_fault(NET_SEND) is None  # budget spent
        assert [(f.point, f.hit, f.kind) for f in inj.fired] == [(NET_SEND, 2, NET_DROP)]


class TestWALHardening:
    def test_oversize_record_rejected(self, space):
        log = WriteAheadLog("w", space, buffer_bytes=1024)
        with pytest.raises(ValueError, match="cannot fit"):
            log.append(1, "update", 2048)

    def test_negative_payload_rejected(self, space):
        log = WriteAheadLog("w", space)
        with pytest.raises(ValueError, match="negative"):
            log.append(1, "update", -1)

    def test_records_checksummed(self, space):
        log = WriteAheadLog("w", space)
        record = log.append(1, "update", 32, payload=("t", 0, (1, 2)))
        assert record.intact
        assert not torn_copy(record).intact

    def test_crash_image_requires_retained_log(self, space):
        log = WriteAheadLog("w", space)
        with pytest.raises(ValueError, match="retain_all"):
            log.crash_image()

    def test_crash_image_drops_unflushed_tail(self, space):
        log = WriteAheadLog("w", space, retain_all=True, group_commit_size=100)
        log.append(1, "update", 8)
        log.force()
        for _ in range(5):
            log.append(2, "update", 8)
        image = log.crash_image()  # rng=None: whole tail lost
        assert [r.lsn for r in image.records] == [1]
        assert image.lost_records == 5

    def test_crash_image_deterministic(self, space):
        log = WriteAheadLog("w", space, retain_all=True, group_commit_size=100)
        for _ in range(10):
            log.append(1, "update", 8)
        a = log.crash_image(random.Random(3))
        b = log.crash_image(random.Random(3))
        assert [r.lsn for r in a.records] == [r.lsn for r in b.records]
        assert a.torn_tail == b.torn_tail

    def test_group_commit_fault_point_loses_batch(self, space):
        log = WriteAheadLog("w", space, retain_all=True, group_commit_size=2)
        log.injector = FaultInjector([FaultSpec(WAL_GROUP_COMMIT, at_hit=1)])
        log.append(1, "commit", 8)
        with pytest.raises(SimulatedCrash):
            log.append(2, "commit", 8)
        assert log.flushed_lsn == 0  # the batch never became durable


class TestTornTail:
    def test_valid_prefix_truncates_at_torn_record(self, space):
        log = WriteAheadLog("w", space, retain_all=True)
        for _ in range(4):
            log.append(1, "update", 8)
        records = list(log.records)
        records[2] = torn_copy(records[2])
        prefix, dropped = valid_prefix(records)
        assert [r.lsn for r in prefix] == [1, 2]
        assert dropped == 2

    def test_replay_ignores_torn_suffix(self):
        engine = shore_with_log()
        engine.execute("p", lambda txn: txn.update("t", 5, "value", 111))
        engine.execute("p", lambda txn: txn.update("t", 5, "value", 222))
        log = engine.recovery_log()
        # Tear the second transaction's first record: its whole suffix
        # (including the commit) must vanish from replay.
        second_txn_first = next(
            i for i, r in enumerate(log.records) if r.payload and r.payload[2][1] == 222
        )
        log.records[second_txn_first] = torn_copy(log.records[second_txn_first])
        state = replay(log)
        assert state.truncated_records > 0
        assert state.row("t", 5)[1] == 111


class TestUndoPass:
    def test_crash_mid_rollback_completes_via_clrs(self):
        engine = shore_with_log()
        engine.execute("p", lambda txn: txn.update("t", 5, "value", 111))
        txn = engine.begin()
        txn.update("t", 5, "value", 222)
        txn.update("t", 6, "value", 333)
        # Crash on the second CLR append: the rollback dies half done.
        engine.attach_injector(FaultInjector([FaultSpec(WAL_BEFORE_APPEND, at_hit=2)]))
        with pytest.raises(SimulatedCrash):
            txn.abort()
        state = replay(engine.recovery_log())
        assert state.undo_applied >= 1
        # Undo entries are compensated in reverse: row 6's CLR landed
        # before the crash and restores its pre-transaction image.
        assert state.row("t", 6) == engine.table("t").heap.schema.default_row(6)
        # Row 5's committed image comes from redo, not the lost CLR.
        assert state.row("t", 5)[1] == 111


class TestCheckpoints:
    def _busy_engine(self):
        engine = shore_with_log()
        for i in range(10):
            engine.execute("p", lambda txn, v=i: txn.update("t", v, "value", v + 100))
        engine.execute("p", lambda txn: txn.insert("t", (9000, 1), key=9000))
        engine.execute("p", lambda txn: txn.delete("t", 3))
        return engine

    def test_checkpoint_replay_equals_full_replay(self):
        engine = self._busy_engine()
        log = engine.recovery_log()
        take_checkpoint(log)
        engine.execute("p", lambda txn: txn.update("t", 1, "value", 999))
        log.force()
        from_checkpoint = replay(log)
        assert from_checkpoint.checkpoint_lsn is not None
        full = replay(
            LogImage(records=[r for r in log.records if r.kind != CHECKPOINT])
        )
        assert full.checkpoint_lsn is None
        assert from_checkpoint.digest() == full.digest()

    def test_truncated_log_still_recovers_everything(self):
        engine = self._busy_engine()
        log = engine.recovery_log()
        reference = replay(LogImage(records=list(log.records)))
        take_checkpoint(log, truncate=True)
        assert log.records[0].kind == CHECKPOINT  # history reclaimed
        state = replay(log)
        assert state.digest() == reference.digest()
        assert verify_against_engine(state, engine) == []


class TestDeleteReinsertAcrossCrash:
    def test_reinserted_key_survives_recovery(self):
        engine = shore_with_log()
        engine.execute("p", lambda txn: txn.delete("t", 7))
        engine.recovery_log().force()
        state = replay(engine.recovery_log().crash_image())
        fresh = shore_with_log()
        restore_engine(state, fresh)
        assert fresh.table("t").probe(7, None, 0) is None
        # The restarted engine re-inserts the same key with new values.
        fresh.execute("p", lambda txn: txn.insert("t", (7, 4242), key=7))
        fresh.recovery_log().force()
        state2 = replay(fresh.recovery_log())
        assert verify_against_engine(state2, fresh) == []
        row_id = fresh.table("t").probe(7, None, 0)
        assert row_id is not None
        assert fresh.committed_row("t", row_id)[1] == 4242


class TestOutcomeAccounting:
    def test_commit_outcome(self):
        engine = shore_with_log()
        engine.execute("p", lambda txn: txn.update("t", 1, "value", 1))
        assert engine.last_outcome == COMMITTED
        assert engine.stats.commits_by_procedure == {"p": 1}

    def test_user_abort_outcome(self):
        engine = shore_with_log()

        def doomed(txn):
            raise UserAbort("no")

        engine.execute("p", doomed)
        assert engine.last_outcome == USER_ABORTED
        assert engine.stats.user_aborts == 1
        assert engine.stats.aborts_by_reason == {AbortReason.USER: 1}

    def test_retries_exhausted_with_backoff_accounting(self):
        engine = shore_with_log(max_retries=3)

        def conflicted(txn):
            raise TransactionAborted("fake conflict", reason=AbortReason.LOCK_CONFLICT)

        engine.execute("p", conflicted)
        assert engine.last_outcome == RETRIES_EXHAUSTED
        stats = engine.stats
        assert stats.retries_exhausted == 1
        assert stats.aborts_by_reason == {AbortReason.LOCK_CONFLICT: 4}
        # Exponential: 1x, 2x, 4x the base (the exhausted attempt has
        # no retry after it).
        assert stats.backoff_cycles == pytest.approx(BACKOFF_BASE_CYCLES * 7)
        assert stats.retries_by_procedure == {"p": 3}

    def test_stats_merge_accumulates(self):
        a = shore_with_log()
        b = shore_with_log()
        a.execute("p", lambda txn: txn.update("t", 1, "value", 1))
        b.execute("q", lambda txn: txn.update("t", 2, "value", 2))
        a.stats.merge(b.stats)
        assert a.stats.commits == 2
        assert a.stats.commits_by_procedure == {"p": 1, "q": 1}


class TestRunnerCounting:
    def test_run_trace_transactions_parameter(self, tiny_machine):
        trace = AccessTrace()
        assert tiny_machine.run_trace(trace).transactions == 1
        assert tiny_machine.run_trace(trace, transactions=0).transactions == 0

    def test_measured_txns_counts_only_commits(self):
        from repro.bench.runner import ExperimentRunner, RunSpec
        from repro.workloads.base import Workload

        class Flaky(Workload):
            name = "flaky"

            def table_specs(self):
                return [TableSpec("t", microbench_schema(), 1000)]

            def next_transaction(self, rng, *, partition=None, n_partitions=1):
                key = rng.randrange(1000)
                doomed = rng.random() < 0.5

                def body(txn):
                    txn.update("t", key, "value", 1)
                    if doomed:
                        raise UserAbort("flaky")

                return "flaky", body

        spec = RunSpec(
            system="hyper",
            measure_events=4000,
            warmup_events=1000,
            repetitions=1,
        )
        result = ExperimentRunner(spec, Flaky).run()
        # ~half the attempts abort; the commit count must still reach
        # the floor and every counted transaction must be a commit.
        assert result.measured_txns >= 24
        assert result.counters.transactions == result.measured_txns

    def test_run_phase_raises_when_workload_cannot_commit(self):
        from repro.bench.runner import ExperimentRunner, RunSpec
        from repro.workloads.base import Workload

        class Hopeless(Workload):
            name = "hopeless"

            def table_specs(self):
                return [TableSpec("t", microbench_schema(), 1000)]

            def next_transaction(self, rng, *, partition=None, n_partitions=1):
                def body(txn):
                    raise UserAbort("always")

                return "hopeless", body

        spec = RunSpec(system="hyper", measure_events=10, warmup_events=10, repetitions=1)
        with pytest.raises(RuntimeError, match="cannot make progress"):
            ExperimentRunner(spec, Hopeless).run()
