"""The one legal door to the host clock.

Simulation results must be a pure function of the seed: a wall-clock
read that reaches a result is a determinism bug, and the parity
harness (``tests/test_parity.py``) fails on it, because the same
command run three times prints three different values.  Code with a
legitimate need — display timing on the CLI, the perf harness timing
itself, the tracer's monotonic clock, timestamped run records — imports the
helper that names its purpose:

* :func:`wall_timer` — wall-clock seconds for *display* timing (how
  long a figure took to regenerate).  Never feed this into a result.
* :func:`perf_timer` / :func:`perf_timer_ns` — monotonic
  self-measurement (the perf suite measuring the simulator, the span
  tracer's timestamps).  Timing the simulator is not simulating.
* :func:`timestamp` — the ``created`` time of a stored run (its run id
  carries the date part).

The helpers are trivial on purpose: the value of the module is the
chokepoint, not the code.  Grep for callers to audit every place the
repository touches real time.
"""

from __future__ import annotations

import time


def wall_timer() -> float:
    """Wall-clock seconds (``time.time``) for user-facing display timing."""
    return time.time()


def perf_timer() -> float:
    """Monotonic high-resolution seconds for self-measurement."""
    return time.perf_counter()


def perf_timer_ns() -> int:
    """Monotonic nanoseconds — the span tracer's timestamp source."""
    return time.perf_counter_ns()


def timestamp() -> str:
    """Local time as ``YYYY-MM-DDTHH:MM:SS`` (stored-run provenance)."""
    return time.strftime("%Y-%m-%dT%H:%M:%S")
