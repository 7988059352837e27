"""The open-loop event-queue scheduler.

Replays a merged arrival timeline (see :mod:`repro.load.arrivals`)
against a backend — a node (a
:class:`~repro.replication.group.SingleNode` or a
:class:`~repro.replication.group.ReplicationGroup`) or a
:class:`~repro.sharding.cluster.ShardedCluster` — on a single
virtual-time axis:

* **arrival** — the event's timeline timestamp (think time included);
* **queueing delay** — the request waits until one of ``servers``
  virtual service slots frees up; an open-loop client does not care
  that the previous request has not finished;
* **service time** — what the simulated hardware charges: replayed
  trace cycles through the cycle-accurate :class:`~repro.core.machine.
  Machine` (cycles / clock GHz -> ns) for engine work, plus
  :data:`TICK_NS` per :class:`~repro.replication.network.SimNetwork`
  fabric tick for replication acks and 2PC rounds.

Latency = queueing + service, which is exactly the quantity closed-loop
harnesses cannot report: when offered load exceeds capacity the queue
grows without bound over the horizon and the tail percentiles explode
while goodput flattens at capacity — the saturation curve.

A sweep runs the timeline at several offered-load multipliers around a
capacity estimate (probed by running a short back-to-back batch, i.e.
a closed loop, on a fresh backend).  Each sweep point is an
independent task with its own tagged RNG streams and its own backend,
so points fan out across worker processes bit-identically to the
serial path — same task list, same seeds, results folded in
submission order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

from repro import obs
from repro.bench.runner import prewarm_llc
from repro.core.machine import Machine
from repro.core.spec import IVY_BRIDGE
from repro.engines.base import COMMITTED
from repro.engines.registry import boot_node, check_system
from repro.faults.injector import (
    ABORT,
    COORDINATOR_CRASH,
    FaultInjector,
    FaultSpec,
    PREPARE_STALL,
    TPC_COORDINATOR,
    TPC_PREPARE,
    TXN_BODY,
)
from repro.util import sanitizer
from repro.load.arrivals import (
    NS_PER_S,
    ArrivalSpec,
    LoadEvent,
    build_timeline,
)
from repro.load.resilience import (
    ChaosLoadSpec,
    ChaosPointStats,
    ResilienceSpec,
    replay_resilient,
)
from repro.load.scenarios import INSERT, MIXES, READ, UPDATE, Mix
from repro.replication.group import (
    PRIMARY_NODE,
    ReplicationGroup,
    ReplicationSpec,
    SingleNode,
    check_ack,
)
from repro.sharding.cluster import ShardSpec, ShardedCluster
from repro.storage.record import LONG
from repro.util.fanout import ordered_map
from repro.util.rng import child_rng
from repro.util.timeunits import TICK_NS, ticks_to_ns, us_to_ns
from repro.workloads.microbench import BYTES_PER_ROW, TABLE, MicroBenchmark

PROBE_TXNS = 32
"""Back-to-back transactions the capacity probe measures."""

PROBE_WARMUP = 8
"""Probe transactions discarded before measuring: first touches pay
cold-cache service times no steady-state request sees."""

DEFAULT_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)
"""Offered-load multipliers of the saturation sweep (x capacity or
x ``--rate``), under-load through 4x overload."""


@dataclass(frozen=True)
class LoadSpec:
    """One open-loop load experiment (picklable: points fan out)."""

    system: str = "hyper"
    mix: str = "read-write"
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    rate: float | None = None  # None = calibrate to probed capacity
    servers: int = 1  # virtual service slots (queue drains this wide)
    n_rows: int = 2000
    # Backend: shards > 0 runs a ShardedCluster (its own TPC-C
    # distributed mix — scenario mixes model single-site traffic);
    # otherwise replicas > 0 runs a ReplicationGroup; else plain.
    shards: int = 0
    replicas: int = 0
    ack: str = "quorum"
    remote_pct: float = 10.0
    # Per-hit probability of an injected TXN_BODY abort (chaos rides
    # along the open loop; aborted requests still occupy the server).
    fault_rate: float = 0.0
    seed: int = 42
    multipliers: tuple[float, ...] = DEFAULT_MULTIPLIERS
    # Chaos-under-load: seeded fault windows merged into the timeline,
    # and the client-side resilience policy layer in front of the queue
    # (see repro.load.resilience).  Every point runs the resilient
    # replay loop; with both unset it opens no window, applies no
    # policy, and the point carries no chaos accounting.
    chaos: ChaosLoadSpec | None = None
    resilience: ResilienceSpec | None = None

    def __post_init__(self) -> None:
        check_system(self.system)
        if self.mix not in MIXES:
            raise ValueError(
                f"unknown mix {self.mix!r}; known: {', '.join(sorted(MIXES))}"
            )
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be > 0")
        if self.servers < 1:
            raise ValueError("servers must be >= 1")
        if self.n_rows < 1000:
            raise ValueError("n_rows must be >= 1000 (microbench minimum)")
        if self.shards < 0 or self.replicas < 0:
            raise ValueError("shards/replicas must be >= 0")
        check_ack(self.ack)
        if not 0.0 <= self.remote_pct <= 100.0:
            raise ValueError("remote_pct must be in [0, 100]")
        if not 0.0 <= self.fault_rate < 1.0:
            raise ValueError("fault_rate must be in [0, 1)")
        if not self.multipliers:
            raise ValueError("need at least one sweep multiplier")
        if any(m <= 0 for m in self.multipliers):
            raise ValueError("sweep multipliers must be > 0")
        if self.chaos is not None:
            self.chaos.validate_backend(self.shards, self.replicas, self.servers)

    def backend_label(self) -> str:
        if self.shards > 0:
            detail = f"{self.shards} shards"
            if self.replicas > 0:
                detail += f" x {self.replicas} replicas ({self.ack})"
            return f"sharded ({detail}, {self.remote_pct:g}% remote)"
        if self.replicas > 0:
            return f"replicated ({self.replicas} replicas, {self.ack})"
        return "plain"

    def the_mix(self) -> Mix:
        return MIXES[self.mix]


@dataclass(frozen=True)
class LoadPointResult:
    """One sweep point: offered load vs what the system delivered.

    ``latencies_ns`` is the merged seed-order sample list (timeline
    order) — percentiles are taken from it with nearest-rank selection,
    so they are actual samples and independent of how the points were
    executed.
    """

    multiplier: float
    offered_tps: float
    achieved_tps: float
    committed: int
    aborted: int
    n_events: int
    horizon_ns: int
    makespan_ns: int  # last completion (== horizon when keeping up)
    queueing_ns: tuple[int, ...]
    service_ns: tuple[int, ...]
    # Per-event operation labels, parallel to queueing_ns/service_ns:
    # read/update/insert for scenario mixes, NewOrder/Payment/... for the
    # sharded backend's TPC-C mix.  Deterministic, so part of equality.
    ops: tuple[str, ...] = ()
    # Chaos/resilience accounting (None unless the spec sets chaos or
    # resilience): fault windows, shed/retry/breaker counters,
    # degraded-mode verdicts — deterministic, so part of equality.
    chaos: ChaosPointStats | None = None
    rng_draws: dict = field(default_factory=dict, compare=False)
    obs_metrics: dict = field(default_factory=dict, compare=False)

    @property
    def latencies_ns(self) -> tuple[int, ...]:
        return tuple(q + s for q, s in zip(self.queueing_ns, self.service_ns))

    def latencies_by_op(self) -> dict[str, tuple[int, ...]]:
        """Latency samples split by operation label, in timeline order.

        Keys are sorted so iteration order is pinned; an empty dict
        means the point predates per-op tracking (old records).
        """
        by_op: dict[str, list[int]] = {}
        for op, latency in zip(self.ops, self.latencies_ns):
            by_op.setdefault(op, []).append(latency)
        return {op: tuple(by_op[op]) for op in sorted(by_op)}

    def mean_queueing_ns(self) -> float:
        return sum(self.queueing_ns) / len(self.queueing_ns) if self.queueing_ns else 0.0

    def mean_service_ns(self) -> float:
        return sum(self.service_ns) / len(self.service_ns) if self.service_ns else 0.0


@dataclass(frozen=True)
class LoadResult:
    """A full sweep: capacity estimate + one point per multiplier."""

    spec: LoadSpec
    capacity_tps: float
    base_rate: float
    points: tuple[LoadPointResult, ...]
    rng_draws: dict = field(default_factory=dict, compare=False)


# -- backends -----------------------------------------------------------------

class _NodeBackend:
    """A node + cycle-accurate machine: a :class:`SingleNode`, or a
    :class:`ReplicationGroup` when the spec asks for replicas.  Service
    is the replayed cycles plus the fabric ticks the submit spent (none
    on a single node)."""

    def __init__(self, spec: LoadSpec, tag: str) -> None:
        self.spec = spec
        self.workload = MicroBenchmark(db_bytes=spec.n_rows * BYTES_PER_ROW)
        self.n_rows = self.workload.n_rows
        boot = partial(boot_node, spec.system, None, self.workload)
        if spec.replicas > 0:
            self.node = ReplicationGroup(
                ReplicationSpec(n_replicas=spec.replicas, ack=spec.ack),
                boot,
                seed=spec.seed,
            )
        else:
            image_purpose = f"load-image:{tag}"
            self.node = SingleNode(boot, child_rng(spec.seed, image_purpose), image_purpose)
        self.machine = Machine(IVY_BRIDGE)
        self.ns_per_cycle = 1.0 / IVY_BRIDGE.clock_ghz
        prewarm_llc(self.machine, self.node.engine)
        if spec.fault_rate > 0:
            self.node.attach_injector(
                FaultInjector(
                    [FaultSpec(TXN_BODY, ABORT, probability=spec.fault_rate, times=-1)],
                    seed=spec.seed,
                )
            )

    def _fabric_clock(self) -> int:
        """Fabric ticks so far; a single node has no fabric."""
        return self.node.net.clock if self.node.replicas else 0

    def _body(self, event: LoadEvent, key: int):
        op = event.op
        if op == READ:

            def body(txn) -> None:
                txn.read(TABLE, key)

        elif op == UPDATE:
            new_value = LONG.default_value(event.value_seed)

            def body(txn) -> None:
                txn.update(TABLE, key, "value", new_value)

        elif op == INSERT:
            row = (key, LONG.default_value(event.value_seed))

            def body(txn) -> None:
                txn.insert(TABLE, row, key=key)

        else:  # pragma: no cover - Mix validation rejects unknown ops
            raise ValueError(f"unknown op {op!r}")
        return body

    def execute(self, event: LoadEvent, key: int) -> tuple[int, bool]:
        ticks_before = self._fabric_clock()
        outcome = self.node.submit(f"load_{event.op}", self._body(event, key))
        committed = outcome == COMMITTED
        # The engine's reused trace object holds exactly this txn's
        # events after submit(); replaying it prices the engine work.
        delta = self.machine.run_trace(
            self.node.engine._trace, transactions=1 if committed else 0
        )
        net_ns = ticks_to_ns(self._fabric_clock() - ticks_before)
        return int(delta.cycles * self.ns_per_cycle) + net_ns, committed

    def op_label(self, event: LoadEvent) -> str:
        """What the per-operation latency breakdown calls this request."""
        return event.op

    def crash_recover(self, chaos: ChaosLoadSpec) -> tuple[int, list[str]]:
        """A crash window fired: the node fails over, priced by its kind.

        A single node tears its log and restarts through
        :func:`repro.storage.recovery.restart`, priced as
        ``recovery_base_us + recovery_per_record_us x records
        replayed``; a group elects its highest-durable replica and
        replays it under a bumped epoch, priced as ``recovery_base_us``
        plus the fabric ticks the election + resync consumed.  Either
        way the new primary carries the backend's injector and its hot
        set goes back into the LLC.  Returns ``(recovery_ns, problems)``.
        """
        ticks_before = self._fabric_clock()
        state, report = self.node.failover()
        prewarm_llc(self.machine, self.node.engine)
        if self.node.replicas:
            failover_ticks = self._fabric_clock() - ticks_before
            recovery_ns = (
                us_to_ns(chaos.recovery_base_us) + ticks_to_ns(max(failover_ticks, 1))
            )
            obs.inc("load.failovers", system=self.spec.system)
        else:
            records = state.redo_applied + state.undo_applied + state.truncated_records
            recovery_ns = us_to_ns(
                chaos.recovery_base_us + chaos.recovery_per_record_us * records
            )
            obs.inc("load.recovered_records", records, system=self.spec.system)
        return recovery_ns, list(report.problems)

    def start_partition(self, ticks: int) -> None:
        """A partition window opened: cut the primary from its replicas."""
        self.node.net.partition({PRIMARY_NODE}, ticks)


class _ShardedBackend:
    """A ShardedCluster; service = the 2PC round's fabric ticks.

    The cluster drives its own TPC-C distributed mix (``remote_pct``
    cross-shard) — the timeline supplies *when* clients submit, the
    cluster decides *what* a distributed transaction is.  Engine-side
    cycle replay is skipped: cross-shard latency is protocol-dominated,
    and pricing N shard engines per request would swamp the quick spec.
    """

    def __init__(self, spec: LoadSpec, tag: str) -> None:
        self.spec = spec
        self.cluster = ShardedCluster(
            ShardSpec(
                n_shards=spec.shards,
                system=spec.system,
                replicas=spec.replicas,
                ack=spec.ack if spec.replicas > 0 else "async",
                remote_pct=spec.remote_pct,
                seed=spec.seed,
            )
        )
        if spec.fault_rate > 0:
            self.cluster.attach_injector(
                FaultInjector(
                    [FaultSpec(TXN_BODY, ABORT, probability=spec.fault_rate, times=-1)],
                    seed=spec.seed,
                )
            )
        self.rng = child_rng(spec.seed, f"load-cluster:{tag}")
        self.n_rows = spec.n_rows
        self._window_injector: FaultInjector | None = None

    def set_window_fault(self, kind: str | None, window_index: int) -> None:
        """Swap the cluster's fault schedule for a chaos-load window.

        ``coordinator_crash`` arms a one-shot crash at the next
        cross-shard coordination step; ``prepare_stall`` stalls every
        prepare vote while the window is open; ``None`` restores the
        steady-state schedule.  Each window's injector is seeded
        ``seed * 1000 + window + 1`` (the ChaosRunner segment idiom) so
        schedules stay independent per window.
        """
        schedule = []
        if self.spec.fault_rate > 0:
            schedule.append(
                FaultSpec(TXN_BODY, ABORT, probability=self.spec.fault_rate, times=-1)
            )
        if kind == COORDINATOR_CRASH:
            schedule.append(
                FaultSpec(TPC_COORDINATOR, COORDINATOR_CRASH, probability=1.0, times=1)
            )
        elif kind == PREPARE_STALL:
            schedule.append(
                FaultSpec(TPC_PREPARE, PREPARE_STALL, probability=1.0, times=-1)
            )
        injector = (
            FaultInjector(schedule, seed=self.spec.seed * 1000 + window_index + 1)
            if schedule
            else None
        )
        self._window_injector = injector if kind is not None else None
        self.cluster.attach_injector(injector)

    def window_fault_fired(self) -> bool:
        """Whether the armed window fault actually fired.

        A coordinator-crash injector only triggers at a cross-shard
        coordination step; local transactions pass through untouched,
        so the replay loop keeps it armed until this reports True.
        """
        return self._window_injector is not None and bool(
            self._window_injector.fired
        )

    def execute(self, event: LoadEvent, key: int) -> tuple[int, bool]:
        ticks_before = self.cluster.net.clock
        outcome = self.cluster.submit_next(self.rng)
        ticks = self.cluster.net.clock - ticks_before
        # A purely local txn spends no fabric ticks; charge one tick so
        # service time is never zero (the request did round-trip a node).
        return ticks_to_ns(max(ticks, 1)), outcome == COMMITTED

    def op_label(self, event: LoadEvent) -> str:
        # The cluster drives its own TPC-C distributed mix: the label is
        # the procedure it just ran (NewOrder/Payment), not the timeline
        # event's scenario op, which the sharded backend ignores.
        return self.cluster.last_procedure or event.op


def _make_backend(spec: LoadSpec, tag: str):
    if spec.shards > 0:
        return _ShardedBackend(spec, tag)
    return _NodeBackend(spec, tag)


# -- the scheduler ------------------------------------------------------------


def probe_capacity(spec: LoadSpec) -> float:
    """Closed-loop capacity estimate: back-to-back txns on a fresh backend.

    Returns transactions per virtual second the ``servers`` slots can
    drain.  Deterministic (own tagged streams), and run once in the
    parent before the sweep so every point prices against the same
    number — serial and ``--jobs N`` see identical task lists.
    """
    probe_arrival = replace(
        spec.arrival, process="poisson", n_events=PROBE_WARMUP + PROBE_TXNS
    )
    events = build_timeline(
        probe_arrival, spec.the_mix(), spec.n_rows, spec.seed, tag="probe"
    )
    backend = _make_backend(spec, "probe")
    total_service_ns = 0
    completed = 0
    next_key = backend.n_rows
    for i, event in enumerate(events):
        if event.op == INSERT:
            key = next_key
            next_key += 1
        else:
            key = event.key
        service_ns, _ok = backend.execute(event, key)
        if i < PROBE_WARMUP:
            continue  # cold-start services would understate capacity
        total_service_ns += service_ns
        completed += 1
    if total_service_ns <= 0:  # pragma: no cover - service is never free
        return float(spec.servers)
    return spec.servers * completed * NS_PER_S / total_service_ns


def run_load_point(spec: LoadSpec, multiplier: float, rate: float) -> LoadPointResult:
    """One sweep point: module-level so worker processes can run it.

    Every point runs :func:`~repro.load.resilience.replay_resilient`,
    the one queue simulator: ``servers`` virtual slots drain the queue
    and each request starts at ``max(arrival, earliest free slot)`` — an
    M/G/c queue whose service process is the simulated system itself.
    """
    arrival = replace(spec.arrival, rate=rate)
    tag = f"x{multiplier:g}"
    events = build_timeline(arrival, spec.the_mix(), spec.n_rows, spec.seed, tag=tag)
    backend = _make_backend(spec, tag)
    horizon_ns = int(arrival.horizon_s() * NS_PER_S)
    replay = replay_resilient(spec, events, backend, tag, horizon_ns, TICK_NS)
    queueing, service, ops = replay.queueing, replay.service, replay.ops
    committed, aborted, makespan = replay.committed, replay.aborted, replay.makespan
    # Goodput over the virtual time it actually took: when the system
    # keeps up the makespan ~= horizon and achieved ~= offered; when
    # overloaded the makespan stretches and achieved pins at capacity.
    elapsed_ns = max(horizon_ns, makespan, 1)
    achieved = committed * NS_PER_S / elapsed_ns
    for q, s in zip(queueing, service):
        obs.observe("load.latency_ns", q + s, mix=spec.mix, point=tag)
        obs.observe("load.queueing_ns", q, mix=spec.mix, point=tag)
    obs.inc("load.committed", committed, mix=spec.mix, point=tag)
    obs.inc("load.aborted", aborted, mix=spec.mix, point=tag)
    return LoadPointResult(
        multiplier=multiplier,
        offered_tps=rate,
        achieved_tps=achieved,
        committed=committed,
        aborted=aborted,
        n_events=len(events),
        horizon_ns=horizon_ns,
        makespan_ns=makespan,
        queueing_ns=tuple(queueing),
        service_ns=tuple(service),
        ops=tuple(ops),
        chaos=(
            replay.stats
            if spec.chaos is not None or spec.resilience is not None
            else None
        ),
        rng_draws=sanitizer.drain_draws() if sanitizer.enabled() else {},
        obs_metrics=obs.drain_metrics(),
    )


def _run_point_task(task: tuple[LoadSpec, float, float]) -> LoadPointResult:
    spec, multiplier, rate = task
    return run_load_point(spec, multiplier, rate)


def run_load(spec: LoadSpec, jobs: int | None = None) -> LoadResult:
    """Probe capacity, then sweep the multipliers (parallel when asked).

    Sweep points are independent tasks in multiplier order; with *jobs*
    > 1 they fan out over a process pool and fold back in submission
    order, bit-identical to the serial path (same seeds, same task
    list, no shared state).
    """
    capacity = probe_capacity(spec)
    probe_draws = sanitizer.drain_draws() if sanitizer.enabled() else {}
    base_rate = spec.rate if spec.rate is not None else max(capacity, 1.0)
    tasks = [(spec, m, base_rate * m) for m in spec.multipliers]
    # Fold in submission (= multiplier) order.
    points = ordered_map(_run_point_task, tasks, jobs)
    rng_draws: dict = dict(probe_draws)
    for point in points:
        sanitizer.merge_draws(rng_draws, point.rng_draws)
    return LoadResult(
        spec=spec,
        capacity_tps=capacity,
        base_rate=base_rate,
        points=tuple(points),
        rng_draws=rng_draws,
    )
