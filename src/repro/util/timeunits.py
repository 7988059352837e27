"""Named time-unit conversions for the virtual timeline.

The simulation prices work in integer virtual nanoseconds, fabric
ticks (:data:`TICK_NS` each), and replayed CPU cycles.  Every
cross-unit conversion goes through a helper here — the ``a_to_b``
names are the declaration ``repro-lint``'s ``unit-mismatch`` file rule
checks, so ``ms_to_ns(res.timeout_ms)`` typechecks dimensionally while
``res.timeout_ms * 1_000_000`` flags.  This module is exempt from the
rule: its bodies are the cross-unit arithmetic.

The helpers are deliberately expression-identical to the inline
arithmetic they replaced (``int(us * 1000)``, ``ns / 1000.0``): pinned
run digests and figure fixtures are bit-exact functions of these
values, so routing through this module must not change a single bit.
"""

from __future__ import annotations

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000

TICK_NS = 50_000
"""Virtual nanoseconds per SimNetwork fabric tick (50 us): a LAN-ish
round-trip unit, so replication acks and 2PC rounds land on the same
virtual-time axis as replayed CPU cycles."""


def us_to_ns(us: float) -> int:
    """Microseconds (possibly fractional) to whole virtual ns."""
    return int(us * NS_PER_US)


def ms_to_ns(ms: float) -> int:
    """Milliseconds (possibly fractional) to whole virtual ns."""
    return int(ms * NS_PER_MS)


def ms_to_ns_float(ms: float) -> float:
    """Milliseconds to ns *without* truncation — for quantities that
    stay fractional (backoff jitter folded into float arrival times)."""
    return ms * NS_PER_MS


def ns_to_us(ns: int) -> float:
    """Nanoseconds to fractional microseconds (trace-viewer axis).

    Divides by a float literal, exactly as the inline code it replaced
    did: int/float and int/int true division round identically for the
    sub-2**53 magnitudes a run produces, and the float form is what the
    pinned trace fixtures were built from.
    """
    return ns / 1000.0


def ticks_to_ns(ticks: int, tick_ns: int = TICK_NS) -> int:
    """Fabric ticks to virtual ns."""
    return ticks * tick_ns


def ns_to_ticks(ns: int, tick_ns: int = TICK_NS) -> int:
    """Virtual ns to whole fabric ticks (floor)."""
    return ns // tick_ns
