"""Sharded multi-primary 2PC tests.

Covers the partitioning map (hypothesis: total + stable), the 2PC happy
path, every protocol message dropped and duplicated at every fabric
step, coordinator crashes before and after the forced commit record,
participant crashes, and a ≥50-schedule seeded chaos sweep asserting
the three cross-shard invariants.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    COORDINATOR_CRASH,
    FaultInjector,
    FaultSpec,
    NET_DROP,
    NET_DUPLICATE,
    NET_SEND,
    PARTICIPANT_CRASH,
    TPC_COORDINATOR,
    TPC_PARTICIPANT,
)
from repro.faults.invariants import tpcc_invariants
from repro.sharding import (
    ABORT,
    COMMIT,
    PARTITIONED_TABLES,
    ShardSpec,
    ShardedChaosSpec,
    ShardedCluster,
    cross_shard_invariants,
    run_sharded_chaos_suite,
    shard_of_key,
    shard_of_warehouse,
    warehouse_of_key,
)
from repro.sharding.cluster import COMMITTED
from repro.storage.recovery import verify_against_engine
from repro.util.rng import root_rng

# Dense-key caps per table (matches repro.workloads.tpcc key packing).
_KEY_CAPS = {
    "warehouse": 1,
    "district": 10,
    "customer": 10 * 3000,
    "orders": 10 * 4096,
    "new_order": 10 * 4096,
    "order_line": 10 * 4096 * 15,
    "stock": 100_000,
}


class TestPartitioning:
    """The warehouse map is total and stable (hypothesis 3rd satellite)."""

    @given(
        table=st.sampled_from(PARTITIONED_TABLES),
        warehouse=st.integers(min_value=0, max_value=499),
        offset=st.integers(min_value=0, max_value=10**9),
        n_shards=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_key_maps_to_exactly_one_shard(
        self, table, warehouse, offset, n_shards
    ):
        cap = _KEY_CAPS[table]
        key = warehouse * cap + (offset % cap)
        assert warehouse_of_key(table, key) == warehouse
        shard = shard_of_key(table, key, n_shards)
        assert shard is not None and 0 <= shard < n_shards
        assert shard == shard_of_warehouse(warehouse, n_shards)

    @given(
        warehouse=st.integers(min_value=0, max_value=10**6),
        n_shards=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_placement_stable_and_enumeration_independent(
        self, warehouse, n_shards
    ):
        first = shard_of_warehouse(warehouse, n_shards)
        # Stable: re-asking (any number of times, any interleaving of
        # other warehouses in between) never moves the warehouse.
        for other in range(5):
            shard_of_warehouse(other, n_shards)
            assert shard_of_warehouse(warehouse, n_shards) == first
        assert 0 <= first < n_shards

    def test_unpartitioned_tables_have_no_owner(self):
        assert warehouse_of_key("item", 17) is None
        assert shard_of_key("history", 3, 4) is None

    def test_unknown_table_rejected(self):
        with pytest.raises(KeyError):
            warehouse_of_key("nope", 0)


def _drive(cluster: ShardedCluster, n_txns: int, seed: int = 1) -> int:
    rng = root_rng(seed + 1, "workload")
    committed = 0
    for _ in range(n_txns):
        if cluster.submit_next(rng) == COMMITTED:
            committed += 1
    return committed


def _check_clean(cluster: ShardedCluster) -> list[str]:
    """Resolve, then collect every invariant violation."""
    cluster.attach_injector(None)
    cluster.resolve_all()
    states = cluster.final_states()
    problems = list(cluster.problems)
    for shard in cluster.shards:
        problems.extend(
            f"state-roundtrip: shard {shard.shard_id}: {p}"
            for p in verify_against_engine(states[shard.shard_id], shard.engine)
        )
        problems.extend(
            f"tpcc-consistency: shard {shard.shard_id}: {p}"
            for p in tpcc_invariants(cluster.workload, shard.engine)
        )
    problems.extend(cross_shard_invariants(cluster, states))
    return problems


class TestHappyPath:
    def test_cross_shard_commits_are_atomic_and_acked(self):
        cluster = ShardedCluster(ShardSpec(n_shards=2, remote_pct=100.0))
        committed = _drive(cluster, 30)
        assert committed > 0
        assert cluster.counters["cross"] > 0
        assert cluster.counters["committed_global"] > 0
        assert cluster.counters["acked_global"] == cluster.counters["committed_global"]
        assert cluster.counters["unacked_global"] == 0
        assert cluster.prepare_ticks and cluster.commit_ticks
        assert _check_clean(cluster) == []

    def test_single_shard_degenerates_to_local(self):
        cluster = ShardedCluster(ShardSpec(n_shards=1, remote_pct=100.0))
        committed = _drive(cluster, 20)
        assert committed > 0
        assert cluster.counters["cross"] == 0
        assert cluster.counters["local"] == 20
        assert _check_clean(cluster) == []


class TestMessageFaults:
    """Drop / duplicate each 2PC message at every protocol step.

    With one cross-shard transaction the fabric send sequence is
    prepare, vote, decision, decision-ack (then retries); sweeping
    ``at_hit`` over the first eight sends hits every message kind at
    least once, on first transmission and on retry."""

    @pytest.mark.parametrize("kind", [NET_DROP, NET_DUPLICATE])
    @pytest.mark.parametrize("at_hit", range(1, 9))
    def test_message_fault_never_breaks_atomicity(self, kind, at_hit):
        cluster = ShardedCluster(ShardSpec(n_shards=2, remote_pct=100.0))
        cluster.attach_injector(
            FaultInjector([FaultSpec(NET_SEND, kind=kind, at_hit=at_hit)], seed=7)
        )
        _drive(cluster, 12)
        assert cluster.counters["cross"] > 0
        assert _check_clean(cluster) == []

    def test_dropped_prepare_is_retried_to_commit(self):
        cluster = ShardedCluster(ShardSpec(n_shards=2, remote_pct=100.0))
        cluster.attach_injector(
            FaultInjector([FaultSpec(NET_SEND, kind=NET_DROP, at_hit=1)], seed=7)
        )
        _drive(cluster, 12)
        # The very first prepare was dropped, yet commits still happen:
        # capped-backoff retransmission carried the protocol through.
        assert cluster.counters["committed_global"] > 0
        assert _check_clean(cluster) == []


class TestCoordinatorCrash:
    def _run_with_crash(self, point, kind, at_hit):
        cluster = ShardedCluster(ShardSpec(n_shards=2, remote_pct=100.0))
        cluster.attach_injector(
            FaultInjector([FaultSpec(point, kind=kind, at_hit=at_hit)], seed=3)
        )
        rng = root_rng(2, "workload")
        interrupted = None
        for _ in range(20):
            before = set(cluster.global_txns)
            cluster.submit_next(rng)
            if cluster.crashes:
                new = set(cluster.global_txns) - before
                interrupted = max(new) if new else None
                break
        assert cluster.crashes, "fault never fired"
        problems = _check_clean(cluster)
        return cluster, interrupted, problems

    def test_crash_before_commit_record_presumes_abort(self):
        # Coordinator hit 2 is step "decide": after all yes-votes, before
        # the forced coord-commit record — the decision must not survive.
        cluster, gtid, problems = self._run_with_crash(
            TPC_COORDINATOR, COORDINATOR_CRASH, at_hit=2
        )
        assert problems == []
        assert gtid is not None
        rec = cluster.global_txns[gtid]
        assert rec.decision == ABORT
        assert not rec.acked

    def test_crash_after_commit_record_preserves_commit(self):
        # Hit 3 is step "post-decision": the coord-commit record is
        # forced, so recovery must drive every member to committed.
        cluster, gtid, problems = self._run_with_crash(
            TPC_COORDINATOR, COORDINATOR_CRASH, at_hit=3
        )
        assert problems == []
        assert gtid is not None
        assert cluster.global_txns[gtid].decision == COMMIT

    def test_crash_at_begin_aborts_cleanly(self):
        cluster, gtid, problems = self._run_with_crash(
            TPC_COORDINATOR, COORDINATOR_CRASH, at_hit=1
        )
        assert problems == []
        if gtid is not None:
            assert cluster.global_txns[gtid].decision == ABORT

    @pytest.mark.parametrize("at_hit", [1, 2])
    def test_participant_crash_resolves_in_doubt(self, at_hit):
        cluster, _, problems = self._run_with_crash(
            TPC_PARTICIPANT, PARTICIPANT_CRASH, at_hit=at_hit
        )
        assert problems == []
        # Shutdown resolution leaves no shard holding prepared state.
        for shard in cluster.shards:
            assert not shard.in_doubt and not shard.open


class TestChaosSweep:
    def test_fifty_seed_sweep_holds_all_invariants(self):
        report, ok = run_sharded_chaos_suite(
            ShardedChaosSpec(n_shards=2, remote_pct=40.0, n_txns=16), range(1, 51)
        )
        assert ok, report

    def test_serial_and_parallel_sweeps_byte_identical(self):
        spec = ShardedChaosSpec(
            n_shards=3, remote_pct=30.0, replicas=2, ack="quorum", n_txns=20
        )
        serial, ok_s = run_sharded_chaos_suite(spec, range(1, 7), jobs=1)
        fanned, ok_f = run_sharded_chaos_suite(spec, range(1, 7), jobs=2)
        assert ok_s and ok_f, serial
        assert serial == fanned

    def test_empty_seed_range_rejected(self):
        # Used to report "all 0 sharded chaos runs clean" and pass.
        with pytest.raises(ValueError, match="at least one seed"):
            run_sharded_chaos_suite(ShardedChaosSpec(), seeds=())

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"n_txns": 0}, "n_txns"),
            ({"n_crashes": -1}, "n_crashes"),  # used to divide by zero
            ({"system": "nope"}, "unknown system"),
            ({"n_shards": 0}, "n_shards"),
            ({"remote_pct": 150.0}, "remote_pct"),
            ({"replicas": -1}, "replicas"),
            ({"ack": "two-phase"}, "ack mode"),
        ],
    )
    def test_spec_rejects_bad_values(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            ShardedChaosSpec(**overrides)
