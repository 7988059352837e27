"""Deterministic, seeded fault injection.

A :class:`FaultInjector` holds a schedule of :class:`FaultSpec` entries
and is threaded through an engine's storage layers by
``Engine.attach_injector``.  The instrumented code calls
:meth:`FaultInjector.fire` at named **injection points**; when a
scheduled fault triggers, the injector raises:

* :class:`SimulatedCrash` — the simulated process dies on the spot.
  The engine object must be treated as dead; the only thing that
  survives is the durable prefix of its recovery log
  (``WriteAheadLog.crash_image``), which recovery replays.
* :class:`InjectedAbort` — a :class:`TransactionAborted` subclass with
  ``reason="injected-fault"``; the engine rolls back and retries like
  any other abort.

Everything is deterministic given the schedule and seed: hit counters
are per-point, probabilistic triggers draw from a private
``random.Random(seed)``, and the injector records every fault it fired.
"""

from __future__ import annotations

import random
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

from repro import obs
from repro.engines.base import AbortReason, TransactionAborted
from repro.util import sanitizer
from repro.util.rng import child_rng

# -- injection points --------------------------------------------------------
# The literals below are fired by the instrumented modules (wal.py,
# lock_manager.py, common.py, base.py use the strings directly to avoid
# import cycles); these constants are the canonical spelling.

WAL_BEFORE_APPEND = "wal.before_append"
WAL_AFTER_APPEND = "wal.after_append"
WAL_GROUP_COMMIT = "wal.group_commit"
TXN_BODY = "txn.body"
LOCK_ACQUIRE = "lock.acquire"
INDEX_INSERT = "index.insert"
# Network points fired by repro.replication.SimNetwork: once per message
# handed to the fabric, once per message about to be delivered.
NET_SEND = "net.send"
NET_DELIVER = "net.deliver"
# Two-phase-commit points fired by repro.sharding: protocol steps on the
# coordinator and participant sides, plus the participant's pre-vote
# window (where a stall delays the vote past the coordinator deadline).
TPC_COORDINATOR = "2pc.coordinator"
TPC_PARTICIPANT = "2pc.participant"
TPC_PREPARE = "2pc.prepare"
# Load-window point fired by repro.load.resilience once per fault window
# of a chaos-under-load sweep; it carries the soft degradation kinds
# (brownout, slow shard) that scale service times instead of killing a
# process.
LOAD_WINDOW = "load.window"

# Process-level points: a crash/abort fault here kills or rolls back the
# simulated process.  NETWORK_POINTS are kept separate — they belong to
# the message fabric, which has no process to crash.
INJECTION_POINTS = (
    WAL_BEFORE_APPEND,
    WAL_AFTER_APPEND,
    WAL_GROUP_COMMIT,
    TXN_BODY,
    LOCK_ACQUIRE,
    INDEX_INSERT,
)

NETWORK_POINTS = (NET_SEND, NET_DELIVER)
TPC_POINTS = (TPC_COORDINATOR, TPC_PARTICIPANT, TPC_PREPARE)
LOAD_POINTS = (LOAD_WINDOW,)
ALL_POINTS = INJECTION_POINTS + NETWORK_POINTS + TPC_POINTS + LOAD_POINTS

CRASH = "crash"
ABORT = "abort"
# Network fault kinds (valid only at NETWORK_POINTS): applied by the
# SimNetwork to the message the point fired for, never raised.
NET_DROP = "drop"
NET_DELAY = "delay"
NET_DUPLICATE = "duplicate"
NET_REORDER = "reorder"
NET_PARTITION = "partition"

NETWORK_KINDS = (NET_DROP, NET_DELAY, NET_DUPLICATE, NET_REORDER, NET_PARTITION)

# 2PC fault kinds (valid only at TPC_POINTS).  The crash kinds behave
# like CRASH — the named process dies mid-protocol and only its durable
# log survives — but keep their own per-kind RNG streams so scheduling
# them cannot shift existing crash/abort/network schedules.
# PREPARE_STALL is soft like the network kinds: it is never raised, it
# tells the participant to delay its vote past the coordinator deadline.
COORDINATOR_CRASH = "coordinator_crash"
PARTICIPANT_CRASH = "participant_crash"
PREPARE_STALL = "prepare_stall"

TPC_KINDS = (COORDINATOR_CRASH, PARTICIPANT_CRASH, PREPARE_STALL)

# Load-degradation kinds (valid only at LOAD_WINDOW).  Soft like the
# network kinds — never raised; the load driver's resilient replay
# multiplies service times while the window is active: BROWNOUT slows
# every server slot, SLOW_SHARD only a subset.  Own per-kind streams so
# scheduling them cannot shift crash/abort/network/2PC schedules.
BROWNOUT = "brownout"
SLOW_SHARD = "slow_shard"

LOAD_KINDS = (BROWNOUT, SLOW_SHARD)
# Kinds that fire() raises as a process death.
_CRASH_KINDS = (CRASH, COORDINATOR_CRASH, PARTICIPANT_CRASH)
# Kinds evaluated by soft_fault()/network_fault(), never raised.
_SOFT_KINDS = NETWORK_KINDS + (PREPARE_STALL,) + LOAD_KINDS
# Which 2PC point each 2PC kind is allowed at.
_TPC_KIND_POINTS = {
    COORDINATOR_CRASH: (TPC_COORDINATOR,),
    PARTICIPANT_CRASH: (TPC_PARTICIPANT,),
    PREPARE_STALL: (TPC_PREPARE,),
}

# Injected aborts only make sense where a transaction can still roll
# back cleanly; commit-path points (WAL appends, group commit) are
# crash-only.
_ABORTABLE_POINTS = (TXN_BODY, LOCK_ACQUIRE, INDEX_INSERT)


class SimulatedCrash(RuntimeError):
    """The simulated process dies here; only the durable log survives."""

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(f"simulated crash at {point} (hit {hit})")
        self.point = point
        self.hit = hit


class InjectedAbort(TransactionAborted):
    """A fault-injected transaction abort (retried like any abort)."""

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(
            f"injected abort at {point} (hit {hit})", reason=AbortReason.INJECTED
        )
        self.point = point
        self.hit = hit


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Triggers either on an exact hit count of its point (``at_hit``,
    1-based) or probabilistically per hit (``probability``); ``times``
    bounds how often it fires (-1 = unlimited).
    """

    point: str
    kind: str = CRASH
    at_hit: int | None = None
    probability: float = 0.0
    times: int = 1

    def __post_init__(self) -> None:
        if self.point not in ALL_POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r}; "
                f"known: {', '.join(ALL_POINTS)}"
            )
        if self.kind not in (CRASH, ABORT) + NETWORK_KINDS + TPC_KINDS + LOAD_KINDS:
            raise ValueError(
                f"fault kind must be 'crash', 'abort' or one of "
                f"{', '.join(NETWORK_KINDS + TPC_KINDS + LOAD_KINDS)}, "
                f"got {self.kind!r}"
            )
        if self.kind in NETWORK_KINDS and self.point not in NETWORK_POINTS:
            raise ValueError(
                f"network fault {self.kind!r} is only valid at "
                f"{', '.join(NETWORK_POINTS)}, not {self.point!r}"
            )
        if self.kind not in NETWORK_KINDS and self.point in NETWORK_POINTS:
            raise ValueError(
                f"{self.point!r} takes network fault kinds "
                f"({', '.join(NETWORK_KINDS)}), not {self.kind!r}: the fabric "
                f"has no process to crash or transaction to abort"
            )
        if self.kind in TPC_KINDS and self.point not in _TPC_KIND_POINTS[self.kind]:
            raise ValueError(
                f"2PC fault {self.kind!r} is only valid at "
                f"{', '.join(_TPC_KIND_POINTS[self.kind])}, not {self.point!r}"
            )
        if self.kind not in TPC_KINDS and self.point in TPC_POINTS:
            raise ValueError(
                f"{self.point!r} takes 2PC fault kinds "
                f"({', '.join(TPC_KINDS)}), not {self.kind!r}"
            )
        if self.kind in LOAD_KINDS and self.point not in LOAD_POINTS:
            raise ValueError(
                f"load fault {self.kind!r} is only valid at "
                f"{', '.join(LOAD_POINTS)}, not {self.point!r}"
            )
        if self.kind not in LOAD_KINDS and self.point in LOAD_POINTS:
            raise ValueError(
                f"{self.point!r} takes load fault kinds "
                f"({', '.join(LOAD_KINDS)}), not {self.kind!r}: window "
                f"degradation scales service time, it has no process to kill"
            )
        if self.kind == ABORT and self.point not in _ABORTABLE_POINTS:
            raise ValueError(
                f"abort faults are only valid at {', '.join(_ABORTABLE_POINTS)}; "
                f"{self.point!r} is past the point of clean rollback (use a crash)"
            )
        if self.at_hit is None and self.probability <= 0.0:
            raise ValueError("need at_hit >= 1 or probability > 0")
        if self.at_hit is not None and self.at_hit < 1:
            raise ValueError("at_hit is 1-based")


@dataclass(frozen=True)
class FiredFault:
    """Record of one fault the injector actually raised."""

    point: str
    hit: int
    kind: str


class FaultInjector:
    """Fires scheduled faults at named injection points, deterministically.

    Probabilistic triggers (and any magnitude draws the consumer makes,
    e.g. delay ticks) come from **per-kind child RNG streams**, each
    seeded off ``(seed, kind)``.  Streams never interleave, so adding a
    schedule entry of one kind — say a network ``drop`` — cannot shift
    the draw sequence of another kind: a fixed seed pins the crash and
    torn-write schedule regardless of what other fault kinds ride along
    (see ``tests/test_faults.py::TestPerKindStreams``).
    """

    def __init__(self, schedule=(), seed: int = 0) -> None:
        self.schedule: list[FaultSpec] = list(schedule)
        self.seed = seed
        self._streams: dict[str, random.Random] = {}
        self.hits: dict[str, int] = {}
        self.fired: list[FiredFault] = []
        self._remaining = [spec.times for spec in self.schedule]
        self.armed = True
        self._aborts_suspended = 0

    def stream(self, kind: str) -> random.Random:
        """The child RNG stream for *kind* (string-seeded: deterministic
        across processes, independent of every other kind's stream)."""
        rng = self._streams.get(kind)
        if rng is None:
            rng = self._streams[kind] = child_rng(self.seed, kind)
        return rng

    def fire(self, point: str, **context) -> None:
        """Called by instrumented code; raises if a fault triggers.

        ``context`` is informational (wal name, txn id, ...) and does
        not affect determinism.
        """
        if not self.armed:
            return
        hit = self.hits.get(point, 0) + 1
        self.hits[point] = hit
        for i, spec in enumerate(self.schedule):
            if spec.point != point or self._remaining[i] == 0:
                continue
            if spec.kind in _SOFT_KINDS:
                continue  # evaluated by soft_fault(), never raised
            if spec.at_hit is not None:
                triggered = spec.at_hit == hit
            else:
                # The draw must come from this kind's own child stream;
                # the sanitizer flags any other stream drawn in here.
                with sanitizer.scope(spec.kind):
                    triggered = self.stream(spec.kind).random() < spec.probability
            if not triggered:
                continue
            if spec.kind == ABORT and self._aborts_suspended:
                continue
            if self._remaining[i] > 0:
                self._remaining[i] -= 1
            self.fired.append(FiredFault(point, hit, spec.kind))
            # A Perfetto trace shows each injection inline with the
            # recovery work it causes.
            obs.annotate(
                "fault." + spec.kind, track="chaos", cat="faults", point=point, hit=hit
            )
            obs.inc("faults.fired", point=point, kind=spec.kind)
            if spec.kind in _CRASH_KINDS:
                # The process is dead: never fire again on this injector.
                self.armed = False
                raise SimulatedCrash(point, hit)
            raise InjectedAbort(point, hit)

    def soft_fault(self, point: str, **context) -> str | None:
        """Evaluate soft (never-raised) faults at *point*; returns the kind.

        Unlike :meth:`fire` nothing is raised — a soft fault is not a
        process event but an instruction to the consumer: the
        :class:`SimNetwork` applies network kinds to the message the
        point fired for (drop it, delay it, ...), and a 2PC participant
        turns ``prepare_stall`` into a delayed vote.  At most one fault
        applies per hit (first matching schedule entry wins).
        """
        if not self.armed:
            return None
        hit = self.hits.get(point, 0) + 1
        self.hits[point] = hit
        for i, spec in enumerate(self.schedule):
            if spec.point != point or self._remaining[i] == 0:
                continue
            if spec.kind not in _SOFT_KINDS:
                continue
            if spec.at_hit is not None:
                triggered = spec.at_hit == hit
            else:
                # The draw must come from this kind's own child stream;
                # the sanitizer flags any other stream drawn in here.
                with sanitizer.scope(spec.kind):
                    triggered = self.stream(spec.kind).random() < spec.probability
            if not triggered:
                continue
            if self._remaining[i] > 0:
                self._remaining[i] -= 1
            self.fired.append(FiredFault(point, hit, spec.kind))
            obs.annotate(
                "fault." + spec.kind, track="chaos", cat="faults", point=point, hit=hit
            )
            obs.inc("faults.fired", point=point, kind=spec.kind)
            return spec.kind
        return None

    # Historical spelling, kept for the fabric call sites: at network
    # points the schedule can only hold network kinds (FaultSpec
    # validation), so the generic soft matcher is exactly equivalent.
    network_fault = soft_fault

    def schedule_digest(self) -> int:
        """Checksum of everything fired so far, in firing order.

        Pinning this for a fixed seed turns "new fault kinds must not
        shift existing schedules" into a regression test.
        """
        content = tuple((f.point, f.hit, f.kind) for f in self.fired)
        return zlib.crc32(repr(content).encode())

    @contextmanager
    def suspend_aborts(self):
        """No injected aborts inside (commit paths); crashes still fire."""
        self._aborts_suspended += 1
        try:
            yield
        finally:
            self._aborts_suspended -= 1

    @property
    def crashed(self) -> bool:
        return not self.armed
