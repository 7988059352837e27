"""Chaos harness: run a workload under a fault schedule and prove recovery.

This is the one chaos harness: the at-hit table, the segment driver
(:func:`drive_segments`) and the suite routine (:func:`run_suite`)
serve every protocol.  A protocol supplies a *target* —
``attach_injector``, ``step(txn_rng) -> committed``, ``checkpoint`` —
plus its final invariants, result type and report.  Targets: a node,
either a ``SingleNode`` or a ``ReplicationGroup`` (here), and a sharded
cluster (:mod:`repro.sharding.chaos`).

:class:`ChaosRunner` is the fault-injection sibling of
:class:`repro.bench.runner.ExperimentRunner`: instead of measuring, it
drives any engine × workload while a :class:`FaultInjector` crashes the
simulated process at scheduled injection points.  After every crash it
takes the WAL's :meth:`crash_image` (durable prefix + partially lost,
possibly torn tail) and restarts through
:func:`repro.storage.recovery.restart`, which

1. replays the image (torn-prefix truncation, checkpoint seeding,
   filtered redo, CLR undo),
2. restores the recovered state onto a freshly booted engine,
3. checks the restore round-trips (:func:`verify_against_engine`),
4. seeds the new engine's log with a checkpoint of the recovered state
   so the *next* crash can recover the cumulative history;

for TPC-C the harness then checks the clause-3.3.2-style consistency
conditions (:func:`repro.faults.invariants.tpcc_invariants`) — the
atomicity proof: no partial transaction effects survive a crash.

Under the paper's asynchronous group-commit setup a transaction whose
commit record had not flushed may be lost wholesale — that is permitted;
what must never happen is a *partial* transaction surviving.

With ``replicas > 0`` the runner drives a
:class:`repro.replication.ReplicationGroup` instead of a ``SingleNode``:
transactions go through the replicated submit path (WAL shipping plus
the spec's ack mode), the fault schedule additionally breaks the
*network* (drop / delay / duplicate / reorder / partition at the
``net.send`` point), and a primary crash runs the deterministic
LSN-based failover instead of single-node restart.  The cross-node
invariants — no acknowledged transaction lost (per ack mode), replica
byte-convergence after partitions heal, monotonic applied LSN — join
the single-node ones in the report.

Everything is deterministic given the spec's seed: the fault schedule,
the crash images' surviving-tail choices and the workload stream all
derive from it, so a chaos run is exactly reproducible.  Network-fault
scheduling draws from a child RNG stream of its own, so a replicated
run's *crash* schedule is byte-identical to the replication-off run at
the same seed.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field, replace
from functools import partial

from repro import obs
from repro.engines.base import COMMITTED, EngineStats
from repro.engines.config import EngineConfig
from repro.engines.registry import boot_node, canonical_name, check_system
from repro.faults.injector import (
    ABORT,
    CRASH,
    FaultInjector,
    FaultSpec,
    LOCK_ACQUIRE,
    NET_SEND,
    NETWORK_KINDS,
    PREPARE_STALL,
    SimulatedCrash,
    TPC_COORDINATOR,
    TPC_PARTICIPANT,
    TPC_PREPARE,
    TXN_BODY,
    WAL_AFTER_APPEND,
    WAL_BEFORE_APPEND,
    WAL_GROUP_COMMIT,
)
from repro.faults.invariants import tpcc_invariants
from repro.lint import sanitizer
from repro.replication import ReplicationGroup, ReplicationSpec, SingleNode
from repro.replication.group import check_ack
from repro.storage.recovery import replay, take_checkpoint, verify_against_engine
from repro.util.fanout import ordered_map
from repro.util.rng import child_rng, root_rng
from repro.workloads.microbench import MicroBenchmark
from repro.workloads.tpcc import TPCC

# How early in a segment each scheduled fault lands (at_hit is drawn
# uniformly from the range).  Rare points (group commit, txn body, the
# 2PC points, prepare) get narrow ranges; raw WAL/lock/index hits
# arrive many per transaction and net.send fires per message, so wider
# ranges still land the fault within a few transactions.
_AT_HIT_RANGES = {
    WAL_GROUP_COMMIT: (1, 2),
    TXN_BODY: (1, 5),
    TPC_COORDINATOR: (1, 4),
    TPC_PARTICIPANT: (1, 3),
    TPC_PREPARE: (1, 4),
    NET_SEND: (1, 40),
}
_DEFAULT_AT_HIT_RANGE = (1, 15)


def check_chaos_spec(spec) -> None:
    """The rules every chaos spec shares: at least one transaction, no
    negative crash count, and only known network fault kinds."""
    if spec.n_txns < 1:
        raise ValueError(f"n_txns must be >= 1 (got {spec.n_txns})")
    if spec.n_crashes is not None and spec.n_crashes < 0:
        raise ValueError(f"n_crashes must be >= 0 (got {spec.n_crashes})")
    unknown = set(spec.net_kinds or ()) - set(NETWORK_KINDS)
    if unknown:
        raise ValueError(
            f"unknown network fault kind(s) {', '.join(sorted(unknown))}; "
            f"known: {', '.join(NETWORK_KINDS)}"
        )


def _segment_injector(
    spec, segment: int, crash, streams: dict, abort_probability: float
) -> FaultInjector:
    """One segment's faults: crash, abort storm, network fault, stall.
    Each at-hit draws from its own stream, so enabling one class cannot
    shift another (replication on or off, same crash schedule)."""

    def at_hit(purpose: str, point: str) -> int:
        with sanitizer.scope(purpose):
            return streams[purpose].randint(
                *_AT_HIT_RANGES.get(point, _DEFAULT_AT_HIT_RANGE)
            )

    schedule = []
    if crash is not None:
        point, kind = crash
        at = at_hit("fault-schedule", point)
        schedule.append(FaultSpec(point, kind=kind, at_hit=at))
    if abort_probability > 0.0:
        schedule.append(
            FaultSpec(TXN_BODY, kind=ABORT, probability=abort_probability, times=-1)
        )
    if "net" in streams:
        kinds = spec.net_kinds or NETWORK_KINDS
        kind, at = kinds[segment % len(kinds)], at_hit("net", NET_SEND)
        schedule.append(FaultSpec(NET_SEND, kind=kind, at_hit=at))
    if "stall" in streams:
        at = at_hit("stall", TPC_PREPARE)
        schedule.append(FaultSpec(TPC_PREPARE, kind=PREPARE_STALL, at_hit=at))
    return FaultInjector(schedule, seed=spec.seed * 1000 + segment)


def drive_segments(
    target,
    spec,
    crash_pool,
    *,
    net: bool,
    stalls: bool = False,
    abort_probability: float = 0.0,
) -> tuple[int, dict[str, int]]:
    """Drive *target* through ``n_crashes + 1`` equal fault segments.

    *spec* is a :class:`ChaosSpec` or a sharded chaos spec.  Segment
    *i* < ``n_crashes`` crashes at ``crash_pool[i % len]``, a ``(point,
    kind)`` pair; the target is checkpointed every
    ``spec.checkpoint_every`` commits.  Returns (commits, fired faults
    per kind).
    """
    streams = {"fault-schedule": root_rng(spec.seed, "fault-schedule")}
    if net:
        streams["net"] = child_rng(spec.seed, "net")
    if stalls:
        streams["stall"] = child_rng(spec.seed, "stall")
    txn_rng = root_rng(spec.seed + 1, "workload")
    n_crashes = spec.n_crashes if spec.n_crashes is not None else len(crash_pool)
    segments = n_crashes + 1
    per_segment = -(-spec.n_txns // segments)
    injectors: list[FaultInjector] = []
    committed = 0
    commits_since_ckpt = 0
    for segment in range(segments):
        crash = crash_pool[segment % len(crash_pool)] if segment < n_crashes else None
        injector = _segment_injector(spec, segment, crash, streams, abort_probability)
        injectors.append(injector)
        target.attach_injector(injector)
        for _ in range(per_segment):
            if not target.step(txn_rng):
                continue
            committed += 1
            commits_since_ckpt += 1
            if spec.checkpoint_every and commits_since_ckpt >= spec.checkpoint_every:
                commits_since_ckpt = 0
                target.checkpoint()
    target.attach_injector(None)
    fired: dict[str, int] = {}
    for injector in injectors:
        for fault in injector.fired:
            fired[fault.kind] = fired.get(fault.kind, 0) + 1
    return committed, fired


@dataclass(frozen=True)
class ChaosSpec:
    """One chaos run: a system, a fault budget, and a seed."""

    system: str
    n_txns: int = 240
    # Crashes to schedule; None = one per injection point in the pool.
    n_crashes: int | None = None
    # Take a fuzzy checkpoint (and truncate the log) every N commits;
    # 0 disables.
    checkpoint_every: int = 40
    # Small batches so group commit (and its crash window) is exercised
    # even in short runs.
    group_commit_size: int = 4
    # Per-hit probability of an injected transaction abort (txn.body).
    abort_probability: float = 0.0
    # Injection points to crash at; None = every point the engine has.
    points: tuple[str, ...] | None = None
    # Replication: 0 = single node (PR-1 behaviour); N > 0 runs a
    # ReplicationGroup with N replicas and the given ack mode, and the
    # fault schedule additionally breaks the network.
    replicas: int = 0
    ack: str = "async"
    # Network fault kinds to cycle through (one per segment at
    # net.send); None = all five.
    net_kinds: tuple[str, ...] | None = None
    seed: int = 1
    engine_config: EngineConfig | None = None

    def __post_init__(self) -> None:
        check_system(self.system)
        if self.replicas < 0:
            raise ValueError("replicas must be >= 0")
        check_ack(self.ack)
        check_chaos_spec(self)

    @classmethod
    def quick(cls, system: str, **overrides) -> "ChaosSpec":
        """The CI-sized variant (repro-bench chaos --quick)."""
        settings = dict(n_txns=80, n_crashes=2, checkpoint_every=20)
        settings.update(overrides)
        return cls(system=system, **settings)

    def replication_spec(self) -> ReplicationSpec:
        return ReplicationSpec(n_replicas=self.replicas, ack=self.ack)


@dataclass
class CrashReport:
    """What one injected crash did and how recovery fared.

    Every crash is a node failover, reported from its
    :class:`~repro.replication.FailoverReport`.  A replicated run fills
    the winner fields in: ``winner_id`` is the replica whose log was
    replayed, ``epoch`` the epoch that crash ended; a single node leaves
    them ``None`` and 0.
    """

    txn_index: int  # 1-based index of the transaction that died
    point: str
    hit: int
    lost_records: int
    torn_tail: bool
    truncated_records: int
    redo_applied: int
    undo_applied: int
    checkpoint_lsn: int | None
    state_digest: int
    problems: list[str] = field(default_factory=list)
    winner_id: int | None = None
    winner_lsn: int | None = None
    epoch: int = 0


def invariant_names(problems) -> list[str]:
    """The distinct invariant names (the ``name:`` prefixes) violated."""
    names = {p.split(":", 1)[0] for p in problems if ":" in p}
    return sorted(names)


@dataclass
class ChaosResult:
    """Outcome of one chaos run."""

    system: str
    workload: str
    attempted: int
    stats: EngineStats
    crashes: list[CrashReport] = field(default_factory=list)
    final_problems: list[str] = field(default_factory=list)
    final_digest: int = 0
    # Replication (all zero/empty for single-node runs).
    replicas: int = 0
    ack: str = "async"
    acked: int = 0
    unacked: int = 0
    replica_digests: tuple[int, ...] = ()
    net_faults: dict = field(default_factory=dict)
    net_counters: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.final_problems and all(not c.problems for c in self.crashes)

    @property
    def failovers(self) -> int:
        return sum(1 for c in self.crashes if c.winner_id is not None)

    def all_problems(self) -> list[str]:
        return [p for c in self.crashes for p in c.problems] + self.final_problems

    def failed_invariants(self) -> list[str]:
        """Names of the invariants any problem in this run violated."""
        return invariant_names(self.all_problems())

    def digest(self) -> int:
        """Checksum of every recovered state (determinism checks)."""
        content = (
            self.final_digest,
            [c.state_digest for c in self.crashes],
            self.replica_digests,
        )
        return zlib.crc32(repr(content).encode())


class ChaosRunner:
    """Run a workload under a crash schedule; recover and verify."""

    def __init__(self, spec: ChaosSpec, workload) -> None:
        self.spec = spec
        self.workload = workload

    # -- engine lifecycle ----------------------------------------------------

    def _point_pool(self, engine) -> list[str]:
        if self.spec.points is not None:
            return list(self.spec.points)
        pool = [WAL_BEFORE_APPEND, WAL_AFTER_APPEND, WAL_GROUP_COMMIT, TXN_BODY]
        if getattr(engine, "locks", None) is not None:
            pool.append(LOCK_ACQUIRE)
        return pool

    def _named_problems(self, state, engine) -> list[str]:
        """Verification + workload invariants, tagged with invariant names."""
        problems = [
            f"state-roundtrip: {p}" for p in verify_against_engine(state, engine)
        ]
        problems.extend(
            f"tpcc-consistency: {p}" for p in self._workload_invariants(engine)
        )
        return problems

    def _workload_invariants(self, engine) -> list[str]:
        if isinstance(self.workload, TPCC):
            return tpcc_invariants(self.workload, engine)
        return []

    # -- the run -------------------------------------------------------------

    def run(self) -> ChaosResult:
        with obs.span(
            "chaos.run", track="chaos", cat="faults",
            system=self.spec.system, workload=self.workload.name,
        ) as run_span:
            result = self._run()
            run_span.set(attempted=result.attempted, crashes=len(result.crashes), ok=result.ok)
            return result

    def _run(self) -> ChaosResult:
        spec = self.spec
        target = _NodeTarget(self)
        node = target.node
        _, fired = drive_segments(
            target,
            spec,
            [(point, CRASH) for point in self._point_pool(node.engine)],
            net=spec.replicas > 0,
            abort_probability=spec.abort_probability,
        )
        # Clean shutdown: force the log, replay it, and compare the
        # recovered state against the live engine.
        engine = node.engine
        node.log.force()
        final_state = replay(node.log)
        final_problems = self._named_problems(final_state, engine)
        extra_problems, replication = target.finish(final_state)
        final_problems.extend(extra_problems)
        target.total.merge(engine.stats)
        return ChaosResult(
            system=canonical_name(spec.system),
            workload=self.workload.name,
            attempted=target.attempted,
            stats=target.total,
            crashes=target.crashes,
            final_problems=final_problems,
            final_digest=final_state.digest(),
            replicas=spec.replicas,
            ack=spec.ack,
            net_faults={k: n for k, n in fired.items() if k in NETWORK_KINDS},
            **replication,
        )


class _NodeTarget:
    """A node — a :class:`SingleNode` or a :class:`ReplicationGroup` —
    whose crash runs :meth:`failover`: a single node tears its own log
    and restarts, a group elects and replays a replica.  Either way the
    restarted primary gets the segment's injector back."""

    def __init__(self, runner: ChaosRunner) -> None:
        self.runner = runner
        spec = runner.spec
        boot = partial(
            boot_node, spec.system, spec.engine_config, runner.workload,
            spec.group_commit_size,
        )
        if spec.replicas > 0:
            self.node = ReplicationGroup(spec.replication_spec(), boot, seed=spec.seed)
        else:
            # Crash-image draws (how much of the unflushed tail survives)
            # get their own child stream, so the fault-schedule stream is
            # consumed by schedule draws only.
            self.node = SingleNode(boot, child_rng(spec.seed, "image"))
        self.attach_injector = self.node.attach_injector
        self.total = EngineStats()
        self.crashes: list[CrashReport] = []
        self.attempted = 0

    def step(self, txn_rng: random.Random) -> bool:
        with sanitizer.scope("workload"):
            procedure, body = self.runner.workload.next_transaction(txn_rng)
        self.attempted += 1
        try:
            outcome = self.node.submit(procedure, body)
        except SimulatedCrash as crash:
            self.crashes.append(self._recover(crash))
            return False
        return outcome == COMMITTED

    def checkpoint(self) -> None:
        try:
            take_checkpoint(self.node.log, truncate=True)
            self.node.ship()
        except SimulatedCrash as crash:
            self.crashes.append(self._recover(crash))

    def _recover(self, crash: SimulatedCrash) -> CrashReport:
        """Fail the node over, then check the workload invariants."""
        runner = self.runner
        with obs.span(
            "chaos.recover", track="chaos", cat="faults",
            point=crash.point, hit=crash.hit, txn_index=self.attempted,
        ) as recover_span:
            self.total.merge(self.node.engine.stats)
            state, report = self.node.failover()
            problems = list(report.problems)
            problems.extend(
                f"tpcc-consistency: {p}"
                for p in runner._workload_invariants(self.node.engine)
            )
            recover_span.set(
                lost_records=report.lost_records,
                torn_tail=report.torn_tail,
                problems=len(problems),
            )
            obs.inc("chaos.recoveries", system=runner.spec.system)
        return CrashReport(
            txn_index=self.attempted,
            point=crash.point,
            hit=crash.hit,
            lost_records=report.lost_records,
            torn_tail=report.torn_tail,
            truncated_records=state.truncated_records,
            redo_applied=state.redo_applied,
            undo_applied=state.undo_applied,
            checkpoint_lsn=state.checkpoint_lsn,
            state_digest=report.state_digest,
            problems=problems,
            winner_id=report.winner_id,
            winner_lsn=report.winner_lsn,
            epoch=report.epoch,
        )

    def finish(self, final_state) -> tuple[list[str], dict]:
        """Heal any partition, drive replicas to the primary's tip, and
        check the cross-node invariants.  Returns the extra final
        problems and the result's replication fields."""
        node = self.node
        node.final_sync()
        problems = node.convergence_problems()
        if not node.replicas:
            return problems, {}
        for txn_id, lsn in sorted(node.acked.items()):
            status = final_state.txn_status.get(txn_id)
            if status is not None and status != COMMITTED:
                problems.append(
                    f"no-acked-txn-lost: acked txn {txn_id} (lsn {lsn}) "
                    f"replayed as {status} at shutdown"
                )
        return problems, dict(
            acked=node.acked_count,
            unacked=node.unacked_count,
            replica_digests=node.replica_digests(),
            net_counters=dict(node.net.counters),
        )


# -- the suite (CLI entry) ---------------------------------------------------


def default_workload_factories() -> dict:
    """The two canonical chaos workloads (small enough to run in CI)."""
    return {
        "micro": lambda: MicroBenchmark(db_bytes=1 << 20, rows_per_txn=4, read_write=True),
        "tpcc": lambda: TPCC(warehouses=2),
    }


def _run_suite_task(task: tuple[ChaosSpec, str]) -> tuple[str, bool, tuple[str, ...]]:
    """One (spec, workload name) suite cell; picklable for --jobs fan-out.

    Returns the rendered report (which embeds ``ChaosResult.digest``),
    the pass verdict, and the names of any violated invariants — the
    full suite output is a pure function of the task, so serial and
    parallel runs are bit-identical.
    """
    from repro.bench.report import render_chaos_result  # local: report imports stats

    spec, workload_name = task
    result = ChaosRunner(spec, default_workload_factories()[workload_name]()).run()
    return render_chaos_result(result), result.ok, tuple(result.failed_invariants())


def run_chaos_suite(
    specs, workloads=None, *, jobs: int = 1, collect: list | None = None
) -> tuple[str, bool]:
    """Run every spec on every workload; returns (report text, all passed).

    *specs* holds one :class:`ChaosSpec` per system; *workloads* names
    workloads of :func:`default_workload_factories` (default: all).
    Each (spec, workload) pair is one cell of :func:`run_suite`:
    ``jobs > 1`` fans cells out, the report is bit-identical to the
    serial run, a failing verdict names the violated invariants, and
    *collect* receives one dict per cell.
    """
    if not specs:
        raise ValueError("a chaos suite needs at least one spec")
    factories = default_workload_factories()
    unknown = [w for w in workloads or () if w not in factories]
    if unknown:
        raise ValueError(
            f"unknown chaos workload(s) {', '.join(unknown)}; "
            f"known: {', '.join(factories)}"
        )
    tasks = [
        (replace(spec, system=canonical_name(spec.system)), workload_name)
        for spec in specs
        for workload_name in workloads or factories
    ]
    return run_suite(
        _run_suite_task, tasks, jobs=jobs, collect=collect,
        label="run_chaos_suite", clean="all chaos runs clean",
        failure="CHAOS FAILURES",
    )


def run_suite(
    run_task, tasks: list, *, jobs: int | None, collect: list | None,
    label: str, clean: str, failure: str,
) -> tuple[str, bool]:
    """Fan suite cells out; returns (reports + verdict line, all passed).

    *run_task* turns one ``(spec, workload name)`` task into ``(report,
    ok, violated invariant names)``; results fold in task order, so the
    text is bit-identical to the serial run.  When *collect* is a list,
    one dict per cell is appended to it (the ``repro.store`` hook).
    """
    outcomes = ordered_map(run_task, tasks, jobs, label=label)
    if collect is not None:
        for (spec, workload_name), (text, ok, failed) in zip(tasks, outcomes):
            collect.append(dict(
                system=spec.system, workload=workload_name, seed=spec.seed,
                ok=ok, failed_invariants=list(failed), report=text,
            ))
    lines = [text for text, _, _ in outcomes]
    all_ok = all(ok for _, ok, _ in outcomes)
    failed = sorted({name for _, _, names in outcomes for name in names})
    lines.append(
        clean if all_ok else f"{failure} (see above) — failing invariants: "
        + (", ".join(failed) or "(unnamed)")
    )
    return "\n".join(lines), all_ok
