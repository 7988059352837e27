"""Chaos-under-load: fault windows and client resilience policies.

The load driver (:mod:`repro.load.driver`) replays an arrival timeline
through an M/G/c queue; this module merges **seeded fault schedules**
into that same integer-ns virtual timeline and puts a **client-side
resilience policy layer** in front of the queue, so a sweep measures
not just saturation but *graceful degradation*:

* :class:`ChaosLoadSpec` — which fault kinds fire, how many windows per
  kind, how wide.  Window placement draws from per-kind child streams
  (``child_rng(seed, "chaos-load:<tag>:<kind>")``), the same idiom as
  :class:`~repro.faults.injector.FaultInjector` per-kind streams, so
  adding a kind to a suite never shifts another kind's windows.
* :class:`ResilienceSpec` — per-request timeouts, capped-exponential
  retry with seeded jitter (via :func:`repro.util.backoff.
  jittered_backoff` — the same schedule the replication and 2PC clients
  use), a deterministic circuit breaker, and queue-depth admission
  control (load shedding).
* :func:`replay_resilient` — the driver's one replay loop.  A
  pending-heap ordered by ``(ready_ns, seq)`` serves the events; with
  no fault windows and the default :class:`ResilienceSpec` it serves
  them in timeline order, a plain M/G/c queue.  Everything stays a pure
  function of ``(seed, spec)``, so sweeps are bit-identical serial vs
  ``--jobs N`` and sanitized vs plain.

Fault semantics (all request-observed: a window's effect lands on the
requests whose service overlaps it — an idle window degrades nobody):

* ``crash`` — the backend process dies at the first request starting
  inside the window.  Plain backends run the **real** ARIES restart
  (torn log -> replay -> restore -> verify) and recovery time is priced
  as ``recovery_base_us + recovery_per_record_us x records replayed``;
  replicated backends run a real :meth:`~repro.replication.group.
  ReplicationGroup.failover` and recovery time is the failover's fabric
  ticks.  Every server slot blocks until recovery completes.
* ``partition`` — the primary is cut from its replicas for the window
  (``SimNetwork.partition``, auto-healing); quorum/sync-one acks time
  out and retry, pricing the outage into service time.
* ``coordinator_crash`` / ``prepare_stall`` — real 2PC fault-injector
  schedules attached for the window; the cluster's internal recovery
  ticks are priced automatically.
* ``brownout`` — service times multiply by ``brownout_factor`` on every
  slot while the window is open (an overloaded dependency, a GC storm).
* ``slow_shard`` — only the first ``slow_slots`` slots degrade (by
  ``slow_factor``): the skewed-hardware case.

Shedding vs queueing: a shed or breaker-rejected request is refused
*at arrival* and costs zero service; a queued request that exceeds its
timeout while waiting is abandoned (also zero service — the client hung
up before the server started); a request that times out *in service*
still burns its full service time (the work is wasted, not avoided).
Retries re-enter the open loop at ``knowledge time + backoff`` — they
never block the arrival process, so there is no coordinated omission:
every attempt's waiting time is measured from when the client actually
wanted service.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro import obs
from repro.faults.injector import (
    BROWNOUT,
    COORDINATOR_CRASH,
    CRASH,
    FaultInjector,
    FaultSpec,
    LOAD_KINDS,
    LOAD_WINDOW,
    NET_PARTITION,
    PREPARE_STALL,
    SLOW_SHARD,
)
from repro.lint import sanitizer
from repro.load.arrivals import NS_PER_S, LoadEvent
from repro.load.scenarios import INSERT
from repro.obs import nearest_rank
from repro.util.backoff import jittered_backoff
from repro.util.rng import child_rng
from repro.util.timeunits import ms_to_ns, ms_to_ns_float, ns_to_ticks

# Every kind a chaos-load window can carry.  The first four reuse the
# fault machinery of earlier PRs (ARIES recovery, failover, SimNetwork
# partitions, 2PC injection points); the last two are the new
# service-degradation kinds introduced with the LOAD_WINDOW point.
CHAOS_LOAD_KINDS = (
    CRASH,
    NET_PARTITION,
    COORDINATOR_CRASH,
    PREPARE_STALL,
    BROWNOUT,
    SLOW_SHARD,
)

# Kinds that kill a process (and block every slot while it recovers).
_CRASHING = (CRASH, COORDINATOR_CRASH)

# Named suites for `repro-bench load --chaos <suite>`.
CHAOS_SUITES: dict[str, tuple[str, ...]] = {
    "crash": (CRASH,),
    "partition": (NET_PARTITION,),
    "coordinator-crash": (COORDINATOR_CRASH,),
    "prepare-stall": (PREPARE_STALL,),
    "brownout": (BROWNOUT,),
    "slow-shard": (SLOW_SHARD,),
    "mixed": (CRASH, BROWNOUT),
}


@dataclass(frozen=True)
class ChaosLoadSpec:
    """Fault windows merged into one load sweep (picklable, hashable)."""

    suite: str = "brownout"
    kinds: tuple[str, ...] = (BROWNOUT,)
    windows_per_kind: int = 1
    window_frac: float = 0.15  # of each kind's horizon segment
    brownout_factor: float = 3.0
    slow_factor: float = 8.0
    slow_slots: int = 1
    recovery_base_us: float = 500.0
    recovery_per_record_us: float = 5.0
    # Degraded-mode gates: fault-window p999 may blow up at most this
    # many x over the clean p999; window backlog must drain within
    # recovery_frac x horizon of the window closing.
    blowup_threshold: float = 100.0
    recovery_frac: float = 0.5

    def __post_init__(self) -> None:
        if not self.kinds:
            raise ValueError("chaos needs at least one fault kind")
        for kind in self.kinds:
            if kind not in CHAOS_LOAD_KINDS:
                raise ValueError(
                    f"unknown chaos-load kind {kind!r}; "
                    f"known: {', '.join(CHAOS_LOAD_KINDS)}"
                )
        if self.windows_per_kind < 1:
            raise ValueError("windows_per_kind must be >= 1")
        if not 0.0 < self.window_frac <= 0.5:
            raise ValueError("window_frac must be in (0, 0.5]")
        if self.brownout_factor < 1.0 or self.slow_factor < 1.0:
            raise ValueError("degradation factors must be >= 1")
        if self.slow_slots < 1:
            raise ValueError("slow_slots must be >= 1")
        if self.recovery_base_us < 0 or self.recovery_per_record_us < 0:
            raise ValueError("recovery pricing must be >= 0")
        if self.blowup_threshold <= 1.0:
            raise ValueError("blowup_threshold must be > 1")
        if not 0.0 < self.recovery_frac <= 1.0:
            raise ValueError("recovery_frac must be in (0, 1]")

    def validate_backend(self, shards: int, replicas: int, servers: int) -> None:
        """Reject kind/backend combinations that cannot fire."""
        for kind in self.kinds:
            if kind == NET_PARTITION and (replicas < 1 or shards > 0):
                raise ValueError(
                    "partition chaos needs a replicated backend "
                    "(--replicas >= 1, no --shards): the window cuts the "
                    "primary from its replicas"
                )
            if kind in (COORDINATOR_CRASH, PREPARE_STALL) and shards < 1:
                raise ValueError(f"{kind} chaos needs a sharded backend (--shards >= 1)")
            if kind == CRASH and shards > 0:
                raise ValueError(
                    "crash chaos on a sharded backend: use the "
                    "coordinator-crash suite (the cluster owns its own "
                    "crash recovery)"
                )
            if kind == SLOW_SHARD and servers < 2 and shards < 1:
                raise ValueError(
                    "slow-shard chaos needs servers >= 2 (or a sharded "
                    "backend): with one slot it is just a brownout"
                )

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "kinds": list(self.kinds),
            "windows_per_kind": self.windows_per_kind,
            "window_frac": self.window_frac,
            "blowup_threshold": self.blowup_threshold,
            "recovery_frac": self.recovery_frac,
        }


def chaos_suite(name: str, windows_per_kind: int = 1, **overrides) -> ChaosLoadSpec:
    """Build a :class:`ChaosLoadSpec` from a named suite."""
    if name not in CHAOS_SUITES:
        raise ValueError(
            f"unknown chaos suite {name!r}; known: {', '.join(sorted(CHAOS_SUITES))}"
        )
    return ChaosLoadSpec(
        suite=name,
        kinds=CHAOS_SUITES[name],
        windows_per_kind=windows_per_kind,
        **overrides,
    )


@dataclass(frozen=True)
class ResilienceSpec:
    """Client-side overload protection (all fields 0/off by default)."""

    timeout_ms: float = 0.0  # 0 = no per-request timeout
    max_retries: int = 0
    backoff_base_ms: int = 1
    backoff_cap_ms: int = 64
    shed_depth: int = 0  # 0 = no admission control
    breaker_threshold: int = 0  # consecutive failures; 0 = no breaker
    breaker_open_ms: float = 20.0

    def __post_init__(self) -> None:
        if self.timeout_ms < 0 or self.breaker_open_ms <= 0:
            raise ValueError("timeout_ms must be >= 0 and breaker_open_ms > 0")
        if self.max_retries < 0 or self.shed_depth < 0 or self.breaker_threshold < 0:
            raise ValueError("max_retries/shed_depth/breaker_threshold must be >= 0")
        if self.backoff_base_ms < 1 or self.backoff_cap_ms < self.backoff_base_ms:
            raise ValueError("need backoff_cap_ms >= backoff_base_ms >= 1")

    def to_dict(self) -> dict:
        return {
            "timeout_ms": self.timeout_ms,
            "max_retries": self.max_retries,
            "shed_depth": self.shed_depth,
            "breaker_threshold": self.breaker_threshold,
        }


@dataclass(frozen=True)
class FaultWindow:
    """One fault window on the virtual timeline."""

    kind: str
    start_ns: int
    end_ns: int

    def covers(self, t_ns: int) -> bool:
        return self.start_ns <= t_ns < self.end_ns


@dataclass(frozen=True)
class DegradedVerdict:
    """One named graceful-degradation gate for a sweep point."""

    name: str
    ok: bool
    value: float
    threshold: float
    detail: str


@dataclass(frozen=True)
class ChaosPointStats:
    """Deterministic chaos/resilience accounting for one sweep point.

    Everything here is a pure function of (seed, spec) and participates
    in equality — the serial vs ``--jobs N`` parity tests compare it
    bit-for-bit.
    """

    windows: tuple[FaultWindow, ...] = ()
    window_digest: int = 0  # FaultInjector.schedule_digest over LOAD kinds
    shed: int = 0
    timeouts: int = 0
    retries: int = 0
    breaker_rejected: int = 0
    breaker_opens: int = 0
    crashes: int = 0
    succeeded: int = 0
    failed: int = 0
    goodput_tps: float = 0.0
    clean_p999_us: float | None = None
    degraded_p999_us: float | None = None
    p999_blowup: float = 1.0
    problems: tuple[str, ...] = ()
    verdicts: tuple[DegradedVerdict, ...] = ()

    def verdict_map(self) -> dict[str, bool]:
        return {v.name: v.ok for v in self.verdicts}


# -- window scheduling --------------------------------------------------------


def schedule_windows(
    chaos: ChaosLoadSpec, seed: int, tag: str, horizon_ns: int
) -> tuple[FaultWindow, ...]:
    """Seeded fault windows over one sweep point's horizon.

    Each kind's horizon splits into ``windows_per_kind`` equal segments;
    window *i* lands at a seeded offset inside segment *i* with duration
    ``window_frac x segment``.  Placement draws come from the kind's own
    child stream, so the crash windows of a mixed suite are byte-equal
    to the crash-only suite's at the same seed.
    """
    windows: list[FaultWindow] = []
    for kind in chaos.kinds:
        purpose = f"chaos-load:{tag}:{kind}"
        rng = child_rng(seed, purpose)
        segment = horizon_ns // chaos.windows_per_kind
        duration = max(1, int(chaos.window_frac * segment))
        for i in range(chaos.windows_per_kind):
            with sanitizer.scope(purpose):
                u = rng.random()
            slack = max(0, segment - duration)
            start = i * segment + int(u * slack)
            windows.append(FaultWindow(kind, start, min(start + duration, horizon_ns)))
    return tuple(sorted(windows, key=lambda w: (w.start_ns, w.kind)))


def _window_injector(
    windows: tuple[FaultWindow, ...], seed: int
) -> FaultInjector:
    """A FaultInjector whose schedule records each LOAD-kind window.

    ``soft_fault(LOAD_WINDOW)`` is called once per activated window (in
    activation order), so :meth:`~repro.faults.injector.FaultInjector.
    schedule_digest` pins the brownout/slow-shard firing order the same
    way the 2PC digests pin crash schedules.
    """
    schedule = []
    hit = 0
    for w in windows:
        if w.kind in LOAD_KINDS:
            hit += 1
            schedule.append(FaultSpec(LOAD_WINDOW, kind=w.kind, at_hit=hit))
    return FaultInjector(schedule, seed=seed)


# -- the resilient replay -----------------------------------------------------


@dataclass
class _Breaker:
    """Deterministic circuit breaker folding knowledge events in time order."""

    threshold: int
    open_ns: int
    state: str = "closed"
    fails: int = 0
    open_until: int = 0
    probe_inflight: bool = False
    opens: int = 0

    def fold(self, t_know: int, ok: bool, probe: bool) -> None:
        if self.state == "half" and probe:
            self.probe_inflight = False
            if ok:
                self.state, self.fails = "closed", 0
            else:
                self.state = "open"
                self.open_until = t_know + self.open_ns
                self.opens += 1
            return
        if self.state != "closed":
            return
        if ok:
            self.fails = 0
            return
        self.fails += 1
        if self.fails >= self.threshold:
            self.state = "open"
            self.open_until = t_know + self.open_ns
            self.opens += 1

    def admit(self, t: int) -> tuple[bool, bool]:
        """(admitted, is_probe) for an attempt arriving at *t*."""
        if self.state == "open":
            if t < self.open_until:
                return False, False
            self.state, self.probe_inflight = "half", False
        if self.state == "half":
            if self.probe_inflight:
                return False, False
            self.probe_inflight = True
            return True, True
        return True, False


@dataclass
class ResilientReplay:
    """What :func:`replay_resilient` hands back to the driver."""

    queueing: list[int]
    service: list[int]
    ops: list[str]
    committed: int
    aborted: int
    makespan: int
    stats: ChaosPointStats


def replay_resilient(
    spec,
    events: list[LoadEvent],
    backend,
    tag: str,
    horizon_ns: int,
    tick_ns: int,
) -> ResilientReplay:
    """Replay the timeline under fault windows + resilience policies.

    *spec* is the driver's ``LoadSpec`` (duck-typed: ``servers``,
    ``seed``, ``chaos``, ``resilience``).  The pending heap is keyed
    ``(ready_ns, seq)`` — original events carry their timeline index,
    retries take fresh monotonically increasing sequence numbers — so
    the processing order, and with it every RNG draw, is a total order
    independent of execution plan.
    """
    chaos: ChaosLoadSpec | None = spec.chaos
    res: ResilienceSpec = spec.resilience or ResilienceSpec()
    windows = (
        schedule_windows(chaos, spec.seed, tag, horizon_ns) if chaos else ()
    )
    win_injector = _window_injector(windows, spec.seed)
    for w in windows:
        # Announce LOAD-kind windows in schedule order so the pinned
        # window digest is a pure function of the window schedule.
        if w.kind in LOAD_KINDS:
            win_injector.soft_fault(LOAD_WINDOW)
    retry_purpose = f"load-retry:{tag}"
    retry_rng = child_rng(spec.seed, retry_purpose)
    image_purpose = f"load-image:{tag}"

    timeout_ns = ms_to_ns(res.timeout_ms)
    breaker = (
        _Breaker(res.breaker_threshold, ms_to_ns(res.breaker_open_ms))
        if res.breaker_threshold > 0
        else None
    )

    server_free = [0] * spec.servers
    queueing: list[int] = []
    service: list[int] = []
    ops: list[str] = []
    committed = aborted = 0
    makespan = 0
    next_key = backend.n_rows
    shed = timeouts = retries = breaker_rejected = crashes = 0
    succeeded = failed = 0
    problems: list[str] = []
    # (latency_ns, degraded) per succeeded request, completion order.
    client_latencies: list[tuple[int, bool]] = []
    # Degraded spans: the fault windows themselves, extended by crash
    # recovery shadows (a request queued behind a 500us restart is
    # degraded even though it arrived after the window closed).
    degraded_spans: list[tuple[int, int]] = [
        (w.start_ns, w.end_ns) for w in windows
    ]
    # Drain time per window: last client-knowledge instant of requests
    # that arrived while the window was open.
    window_drain: dict[int, int] = {}

    # pending: (ready_ns, seq, request_index, attempt)
    pending: list[tuple[int, int, int, int]] = [
        (e.t_ns, i, i, 1) for i, e in enumerate(events)
    ]
    heapq.heapify(pending)
    seq_counter = len(events)
    know_heap: list[tuple[int, int, bool, bool]] = []  # (t, seq, ok, probe)
    in_service: list[int] = []  # completion times, for queue-depth shedding
    triggered: set[int] = set()  # window indices whose one-shot effect fired
    recorded: set[int] = set()  # windows announced to the window injector
    stall_active: int | None = None  # window index driving a 2PC stall
    coord_armed: int | None = None  # armed coordinator-crash window

    def covering(t: int, kind: str) -> int | None:
        for wi, w in enumerate(windows):
            if w.kind == kind and w.covers(t):
                return wi
        return None

    def due(t: int, kind: str) -> int | None:
        """First untriggered one-shot window of *kind* opened by *t*.

        One-shot faults (crashes) are not gated on *t* still being
        inside the window: the process died at the window's start, and
        the first request to reach the server afterwards observes it —
        even if the queue was so backed up that the window had already
        closed.
        """
        for wi, w in enumerate(windows):
            if w.kind == kind and wi not in triggered and w.start_ns <= t:
                return wi
        return None

    def arrival_window(t: int) -> int | None:
        for wi, w in enumerate(windows):
            if w.covers(t):
                return wi
        return None

    def degraded_overlap(arrival: int, t_know: int) -> bool:
        # A request *experienced* a fault if its in-flight interval
        # overlaps a degraded span — arriving before a crash and
        # completing after its recovery counts, not just arriving
        # inside the window.  Each hit stretches the span to the
        # request's own knowledge time: a request queued behind a
        # fault's backlog is degraded by contagion, and the shadow
        # only closes once the backlog actually drains.  (The replay
        # settles requests in ready order, so spans have grown by the
        # time later arrivals classify — deterministic either way.)
        for i, (lo, hi) in enumerate(degraded_spans):
            if arrival < hi and t_know > lo:
                degraded_spans[i] = (lo, max(hi, t_know))
                return True
        return False

    def record_window(wi: int) -> None:
        if wi in recorded:
            return
        recorded.add(wi)
        obs.annotate(
            "chaos-load." + windows[wi].kind, track="load", cat="faults",
            point=tag, start_ns=windows[wi].start_ns,
        )

    def finish(ri: int, attempt: int, t_know: int, ok: bool, probe: bool) -> None:
        """Client learns the attempt's fate at *t_know*; retry or settle."""
        nonlocal seq_counter, retries, succeeded, failed, makespan
        if breaker is not None:
            heapq.heappush(know_heap, (t_know, seq_counter, ok, probe))
            seq_counter += 1
        arrival = events[ri].t_ns
        wi = arrival_window(arrival)
        if wi is not None:
            window_drain[wi] = max(window_drain.get(wi, 0), t_know)
        if ok:
            succeeded += 1
            degraded = degraded_overlap(arrival, t_know)
            client_latencies.append((t_know - arrival, degraded))
            return
        if attempt <= res.max_retries:
            with sanitizer.scope(retry_purpose):
                backoff_ns = ms_to_ns_float(
                    jittered_backoff(
                        res.backoff_base_ms, res.backoff_cap_ms, attempt, retry_rng
                    )
                )
            retries += 1
            heapq.heappush(pending, (t_know + backoff_ns, seq_counter, ri, attempt + 1))
            seq_counter += 1
        else:
            failed += 1

    while pending:
        ready, _seq, ri, attempt = heapq.heappop(pending)
        event = events[ri]
        # Fold every knowledge event the client has seen by now.
        if breaker is not None:
            while know_heap and know_heap[0][0] <= ready:
                t_know, _, ok, probe = heapq.heappop(know_heap)
                breaker.fold(t_know, ok, probe)
        # Partition windows cut the fabric the moment load observes them.
        for wi, w in enumerate(windows):
            if w.kind == NET_PARTITION and wi not in triggered and w.start_ns <= ready:
                triggered.add(wi)
                record_window(wi)
                duration = max(1, ns_to_ticks(w.end_ns - max(ready, w.start_ns), tick_ns))
                backend.start_partition(duration)
        # Circuit breaker: reject without consuming a slot.
        probe = False
        if breaker is not None:
            admitted, probe = breaker.admit(ready)
            if not admitted:
                breaker_rejected += 1
                finish(ri, attempt, ready, False, False)
                continue
        # Queue-depth admission control: shed when the backlog is deep.
        while in_service and in_service[0] <= ready:
            heapq.heappop(in_service)
        if res.shed_depth and len(in_service) >= res.shed_depth:
            shed += 1
            finish(ri, attempt, ready, False, probe)
            continue
        slot = 0
        for i in range(1, len(server_free)):
            if server_free[i] < server_free[slot]:
                slot = i
        start = max(ready, server_free[slot])
        # Abandon in queue: the client hangs up before service starts.
        if timeout_ns and start - ready > timeout_ns:
            timeouts += 1
            finish(ri, attempt, ready + timeout_ns, False, probe)
            continue
        # Crash windows: the first request starting inside one kills the
        # process; recovery blocks every slot.
        crash_wi = due(start, CRASH)
        if crash_wi is not None:
            triggered.add(crash_wi)
            record_window(crash_wi)
            crashes += 1
            with sanitizer.scope(image_purpose, "image"):
                recovery_ns, crash_problems = backend.crash_recover(chaos)
            problems.extend(crash_problems)
            obs.inc("load.crashes", point=tag)
            degraded_spans.append((start, start + recovery_ns))
            for i in range(len(server_free)):
                server_free[i] = max(server_free[i], start) + recovery_ns
            makespan = max(makespan, max(server_free))
            # The in-flight request dies with the connection.
            finish(ri, attempt, start, False, probe)
            continue
        # Coordinator crash: arm at the first request starting past the
        # window, but the fault only fires at an actual cross-shard
        # coordination step — local transactions pass through an armed
        # injector untouched, so it stays armed until one fires.
        coord_wi = due(start, COORDINATOR_CRASH)
        if coord_wi is not None and coord_armed is None:
            triggered.add(coord_wi)
            record_window(coord_wi)
            backend.set_window_fault(COORDINATOR_CRASH, coord_wi)
            coord_armed = coord_wi
        stall_wi = covering(start, PREPARE_STALL)
        if stall_wi is not None and stall_wi != stall_active and coord_armed is None:
            record_window(stall_wi)
            backend.set_window_fault(PREPARE_STALL, stall_wi)
            stall_active = stall_wi
        elif stall_wi is None and stall_active is not None and coord_armed is None:
            backend.set_window_fault(None, stall_active)
            stall_active = None
        if event.op == INSERT:
            # Fresh key per attempt: a retried insert must not collide
            # with a server-side commit its client never saw.
            key = next_key
            next_key += 1
        else:
            key = event.key
        service_ns, ok = backend.execute(event, key)
        coord_fired = coord_armed is not None and backend.window_fault_fired()
        if coord_fired:
            crashes += 1
            obs.inc("load.crashes", point=tag)
            # Restore the steady-state schedule for the rest of the sweep.
            backend.set_window_fault(None, coord_armed)
            coord_armed = None
            stall_active = None
        brown_wi = covering(start, BROWNOUT)
        if brown_wi is not None:
            record_window(brown_wi)
            service_ns = int(service_ns * chaos.brownout_factor)
        slow_wi = covering(start, SLOW_SHARD)
        if slow_wi is not None and slot < chaos.slow_slots:
            record_window(slow_wi)
            service_ns = int(service_ns * chaos.slow_factor)
        completion = start + service_ns
        if coord_fired:
            # The cluster recovered inside execute(); that whole span is
            # the degraded shadow (mirrors the plain-crash recovery span).
            degraded_spans.append((start, completion))
        server_free[slot] = completion
        makespan = max(makespan, completion)
        heapq.heappush(in_service, completion)
        queueing.append(start - ready)
        service.append(service_ns)
        ops.append(backend.op_label(event))
        if ok:
            committed += 1
        else:
            aborted += 1
        served_timeout = bool(timeout_ns) and completion - ready > timeout_ns
        if served_timeout:
            timeouts += 1
        client_ok = ok and not served_timeout
        t_know = min(completion, ready + timeout_ns) if served_timeout else completion
        finish(ri, attempt, t_know, client_ok, probe)

    if coord_armed is not None:
        backend.set_window_fault(None, coord_armed)
    elif stall_active is not None:
        backend.set_window_fault(None, stall_active)

    elapsed = max(horizon_ns, makespan, 1)
    goodput_tps = succeeded * NS_PER_S / elapsed
    clean = tuple(lat for lat, deg in client_latencies if not deg)
    degraded = tuple(lat for lat, deg in client_latencies if deg)
    clean_p999 = nearest_rank(clean, 99.9) / 1000 if clean else None
    degraded_p999 = nearest_rank(degraded, 99.9) / 1000 if degraded else None
    if clean_p999 and degraded_p999 is not None:
        blowup = degraded_p999 / clean_p999
    else:
        blowup = 1.0
    stats = ChaosPointStats(
        windows=windows,
        window_digest=win_injector.schedule_digest(),
        shed=shed,
        timeouts=timeouts,
        retries=retries,
        breaker_rejected=breaker_rejected,
        breaker_opens=breaker.opens if breaker is not None else 0,
        crashes=crashes,
        succeeded=succeeded,
        failed=failed,
        goodput_tps=goodput_tps,
        clean_p999_us=clean_p999,
        degraded_p999_us=degraded_p999,
        p999_blowup=blowup,
        problems=tuple(problems),
        verdicts=_verdicts(
            chaos, windows, window_drain, blowup, problems, horizon_ns, tick_ns
        ),
    )
    obs.inc("load.shed", shed, point=tag)
    obs.inc("load.retries", retries, point=tag)
    obs.inc("load.breaker_open", stats.breaker_opens, point=tag)
    if degraded_p999 is not None:
        obs.set_gauge("load.degraded_p999_us", degraded_p999, point=tag)
    return ResilientReplay(
        queueing=queueing,
        service=service,
        ops=ops,
        committed=committed,
        aborted=aborted,
        makespan=makespan,
        stats=stats,
    )


def _verdicts(
    chaos: ChaosLoadSpec | None,
    windows: tuple[FaultWindow, ...],
    window_drain: dict[int, int],
    blowup: float,
    problems: list[str],
    horizon_ns: int,
    tick_ns: int,
) -> tuple[DegradedVerdict, ...]:
    """The three graceful-degradation gates for one sweep point."""
    if chaos is None:
        return ()
    verdicts = [
        DegradedVerdict(
            name="bounded-p999-blowup",
            ok=blowup <= chaos.blowup_threshold,
            value=round(blowup, 3),
            threshold=chaos.blowup_threshold,
            detail=f"fault-window p999 is {blowup:.1f}x the clean p999",
        )
    ]
    # Worst backlog drain past any window's close, in fabric ticks.
    budget_ns = chaos.recovery_frac * horizon_ns
    worst_ns = 0
    for wi, w in enumerate(windows):
        drain = window_drain.get(wi)
        if drain is not None:
            worst_ns = max(worst_ns, drain - w.end_ns)
    budget_ticks = budget_ns / tick_ns
    verdicts.append(
        DegradedVerdict(
            name="recovers-within-n-ticks",
            ok=worst_ns <= budget_ns,
            value=round(worst_ns / tick_ns, 1),
            threshold=round(budget_ticks, 1),
            detail=(
                f"window backlog drained {worst_ns / tick_ns:.0f} ticks after "
                f"close (budget {budget_ticks:.0f})"
            ),
        )
    )
    verdicts.append(
        DegradedVerdict(
            name="no-acked-loss-under-load",
            ok=not problems,
            value=float(len(problems)),
            threshold=0.0,
            detail=problems[0] if problems else "no recovery/failover problems",
        )
    )
    return tuple(verdicts)


__all__ = [
    "CHAOS_LOAD_KINDS",
    "CHAOS_SUITES",
    "ChaosLoadSpec",
    "ChaosPointStats",
    "DegradedVerdict",
    "FaultWindow",
    "ResilienceSpec",
    "ResilientReplay",
    "chaos_suite",
    "replay_resilient",
    "schedule_windows",
]
