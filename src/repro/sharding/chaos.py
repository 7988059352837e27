"""Cross-shard chaos: crash and break 2PC, then prove the invariants.

The sharded sibling of :class:`repro.faults.chaos.ChaosRunner`: drive a
:class:`~repro.sharding.cluster.ShardedCluster` through a deterministic
fault schedule that mixes

* process crashes — ``coordinator_crash`` / ``participant_crash`` at
  the 2PC protocol points plus the ordinary engine points (WAL append,
  group commit, txn body), one per segment, cycling over the pool;
* network faults — one of drop / delay / duplicate / reorder /
  partition per segment at ``net.send`` on the cross-shard fabric, so
  every 2PC message class gets lost, doubled and shuffled;
* prepare stalls — a participant delays its yes vote past the
  coordinator deadline, forcing the retry/backoff path.

Recovery is exercised in-line (the cluster absorbs crashes and
re-drives in-doubt transactions); after the run, shutdown resolution
heals the fabric, every shard's log is replayed, and the report checks
per-shard invariants (state round-trip, TPC-C consistency, replica
convergence) plus the three cross-shard ones
(:func:`repro.sharding.invariants.cross_shard_invariants`).

The cluster is a target of the shared harness in
:mod:`repro.faults.chaos`; this module adds only the crash pool, the
final invariants, and the result type.

Everything derives from the spec's seed through the established child
streams — ``fault-schedule`` for crash scheduling, ``net`` for network
at-hits, ``stall`` for prepare stalls, ``workload`` for the
transaction stream — so a run is exactly reproducible and the suite is
bit-identical serial vs ``--jobs N``.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field, replace

from repro import obs
from repro.engines.base import COMMITTED, EngineStats
from repro.engines.config import EngineConfig
from repro.engines.registry import canonical_name
from repro.faults.chaos import (
    check_chaos_spec,
    drive_segments,
    invariant_names,
    run_suite,
)
from repro.faults.injector import (
    COORDINATOR_CRASH,
    CRASH,
    PARTICIPANT_CRASH,
    SimulatedCrash,
    TPC_COORDINATOR,
    TPC_PARTICIPANT,
    TXN_BODY,
    WAL_AFTER_APPEND,
    WAL_GROUP_COMMIT,
)
from repro.faults.invariants import tpcc_invariants
from repro.sharding.cluster import ShardSpec, ShardedCluster
from repro.sharding.invariants import cross_shard_invariants
from repro.storage.recovery import take_checkpoint, verify_against_engine

# Crash pool: (point, kind) pairs cycled one-per-segment.
_CRASH_POOL = (
    (TPC_COORDINATOR, COORDINATOR_CRASH),
    (TPC_PARTICIPANT, PARTICIPANT_CRASH),
    (WAL_GROUP_COMMIT, CRASH),
    (TXN_BODY, CRASH),
    (WAL_AFTER_APPEND, CRASH),
)


@dataclass(frozen=True)
class ShardedChaosSpec:
    """One sharded chaos run (picklable: suite cells fan out)."""

    system: str = "shore-mt"
    n_shards: int = 2
    remote_pct: float = 20.0
    replicas: int = 0
    ack: str = "async"
    n_txns: int = 60
    # Crashes to schedule; None = one per pool entry.
    n_crashes: int | None = None
    checkpoint_every: int = 20
    # Network fault kinds to cycle (one per segment); None = all five.
    net_kinds: tuple[str, ...] | None = None
    # Schedule a prepare stall per segment (retry-path coverage).
    stalls: bool = True
    seed: int = 1
    engine_config: EngineConfig | None = None

    def __post_init__(self) -> None:
        check_chaos_spec(self)
        # The system, shard count, remote fraction, replicas and ack
        # mode are ShardSpec's to validate.
        self.shard_spec()

    def shard_spec(self) -> ShardSpec:
        return ShardSpec(
            n_shards=self.n_shards,
            system=self.system,
            replicas=self.replicas,
            ack=self.ack,
            remote_pct=self.remote_pct,
            seed=self.seed,
            engine_config=self.engine_config,
        )


@dataclass
class ShardedChaosResult:
    """Outcome of one sharded chaos run."""

    system: str
    n_shards: int
    remote_pct: float
    replicas: int
    ack: str
    seed: int
    attempted: int
    committed: int
    counters: dict
    stats: EngineStats
    crashes: list = field(default_factory=list)  # (point, hit, shard)
    problems: list[str] = field(default_factory=list)
    state_digests: tuple[int, ...] = ()
    net_counters: dict = field(default_factory=dict)
    fired: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems

    def failed_invariants(self) -> list[str]:
        return invariant_names(self.problems)

    def digest(self) -> int:
        """Checksum of final per-shard states + verdict bookkeeping."""
        content = (
            self.state_digests,
            sorted(self.counters.items()),
            tuple(self.crashes),
            tuple(self.problems),
        )
        return zlib.crc32(repr(content).encode())


class ShardedChaosRunner:
    """Run a sharded cluster under a 2PC-aware fault schedule."""

    def __init__(self, spec: ShardedChaosSpec) -> None:
        self.spec = spec

    def run(self) -> ShardedChaosResult:
        spec = self.spec
        with obs.span(
            "sharded_chaos.run", track="chaos", cat="sharding",
            system=spec.system, shards=spec.n_shards, remote_pct=spec.remote_pct,
        ) as run_span:
            result = self._run()
            run_span.set(
                attempted=result.attempted,
                crashes=len(result.crashes),
                ok=result.ok,
            )
            return result

    def _run(self) -> ShardedChaosResult:
        spec = self.spec
        cluster = ShardedCluster(spec.shard_spec())
        committed, fired = drive_segments(
            _ClusterTarget(cluster), spec, _CRASH_POOL, net=True, stalls=spec.stalls
        )
        cluster.resolve_all()
        states = cluster.final_states()
        problems = list(cluster.problems)
        for shard in cluster.shards:
            state = states[shard.shard_id]
            problems.extend(
                f"state-roundtrip: shard {shard.shard_id}: {p}"
                for p in verify_against_engine(state, shard.engine)
            )
            problems.extend(
                f"tpcc-consistency: shard {shard.shard_id}: {p}"
                for p in tpcc_invariants(cluster.workload, shard.engine)
            )
            shard.node.final_sync()
            problems.extend(shard.node.convergence_problems())
        problems.extend(cross_shard_invariants(cluster, states))
        total = EngineStats()
        total.merge(cluster.total_stats)
        for shard in cluster.shards:
            total.merge(shard.engine.stats)
        return ShardedChaosResult(
            system=canonical_name(spec.system),
            n_shards=spec.n_shards,
            remote_pct=spec.remote_pct,
            replicas=spec.replicas,
            ack=spec.ack,
            seed=spec.seed,
            attempted=cluster.counters["submitted"],
            committed=committed,
            counters=dict(cluster.counters),
            stats=total,
            crashes=list(cluster.crashes),
            problems=problems,
            state_digests=tuple(
                states[s.shard_id].digest() for s in cluster.shards
            ),
            net_counters=dict(cluster.net.counters),
            fired=fired,
        )


class _ClusterTarget:
    """The harness target: ``submit_next`` absorbs crashes itself."""

    def __init__(self, cluster: ShardedCluster) -> None:
        self.cluster = cluster
        self.attach_injector = cluster.attach_injector

    def step(self, txn_rng: random.Random) -> bool:
        return self.cluster.submit_next(txn_rng) == COMMITTED

    def checkpoint(self) -> None:
        _checkpoint_all(self.cluster)


def _checkpoint_all(cluster: ShardedCluster) -> None:
    """Fuzzy-checkpoint (and truncate) every shard's log; safe now
    that checkpoints carry prepared records and commit decisions."""
    for shard in cluster.shards:
        if shard.crashed:
            continue
        try:
            take_checkpoint(shard.log, truncate=True)
            shard.node.ship()
        except SimulatedCrash as crash:
            cluster._note_crash(shard, crash)
    cluster._recover_crashed()


# -- the suite (CLI entry) ---------------------------------------------------


def _run_sharded_task(task: tuple[ShardedChaosSpec, str]) -> tuple[str, bool, tuple]:
    """One suite cell; picklable for --jobs fan-out.  The rendered
    report embeds the result digest, so serial and parallel suite runs
    are bit-identical."""
    from repro.bench.report import render_sharded_chaos_result  # local: import cycle

    result = ShardedChaosRunner(task[0]).run()
    return (
        render_sharded_chaos_result(result),
        result.ok,
        tuple(result.failed_invariants()),
    )


def run_sharded_chaos_suite(
    spec: ShardedChaosSpec, seeds, *, jobs: int = 1, collect: list | None = None
) -> tuple[str, bool]:
    """Run *spec* once per seed in *seeds*; returns (report, ok).

    Each seed is an independent cell of
    :func:`repro.faults.chaos.run_suite` (its own cluster, schedule and
    workload stream): ``jobs > 1`` fans cells out, the report is
    bit-identical to the serial run, and *collect* receives one dict
    per cell (workload ``tpcc``).
    """
    tasks = [(replace(spec, seed=seed), "tpcc") for seed in seeds]
    if not tasks:
        raise ValueError("a sharded chaos sweep needs at least one seed")
    return run_suite(
        _run_sharded_task, tasks, jobs=jobs, collect=collect,
        label="run_sharded_chaos_suite",
        clean=(
            f"all {len(tasks)} sharded chaos runs clean ({spec.n_shards} "
            f"shards, {spec.remote_pct:g}% remote, ack={spec.ack})"
        ),
        failure="SHARDED CHAOS FAILURES",
    )
