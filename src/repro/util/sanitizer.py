"""Runtime determinism sanitizer: provenance-tagged RNG streams.

This module catches the nondeterminism you can only see at run time: a
stream drawn from the wrong place, or a serial/parallel run whose
streams consumed different draw counts.  It backs ``--sanitize``:

* :class:`TrackedRandom` — a ``random.Random`` subclass the seeded
  factories (:mod:`repro.util.rng`) hand out when the sanitizer is
  armed.  It is seeded identically to the plain ``Random`` it
  replaces, so **sanitized runs are bit-identical to plain runs**; on
  top it tags the stream with its ``(seed, purpose)`` provenance and
  counts every underlying draw.
* :func:`scope` — declares "only these purposes may draw here".
  Chaos wraps its schedule draws in ``scope("fault-schedule")``, the
  crash-image tear in ``scope("image")``, and so on; a draw from any
  other stream inside the region is recorded as a **cross-stream
  draw** violation (the bug class where one stream's consumption
  silently shifts another's sequence).
* :func:`drain_draws` / :func:`compare_draws` — per-stream draw
  counts, shipped back from worker processes on
  ``RunResult.rng_draws`` and merged in seed order, so a serial run
  and a ``--jobs N`` run can be diffed stream by stream
  (**draw-count divergence**).  Draws a pool task leaves undrained,
  and its violations, ship back through :func:`drain_worker_state` /
  :func:`merge_worker_state` (:mod:`repro.util.fanout` calls them).

Arming: ``repro-bench ... --sanitize`` enters :func:`sanitizing`,
which also exports ``REPRO_SANITIZE=1`` so pool worker processes arm
themselves on import.  Everything here is stdlib-only and imports
nothing from the rest of ``repro``, so any layer may use it.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager, nullcontext

ENV_VAR = "REPRO_SANITIZE"
MAX_VIOLATIONS = 200

_armed = os.environ.get(ENV_VAR) == "1"
_scopes: list[tuple[str, ...]] = []
_draws: dict[str, int] = {}
_violations: list[tuple[tuple, str]] = []  # (dedupe key, message)
_violation_keys: set[tuple] = set()


def enabled() -> bool:
    """Is the sanitizer armed (``--sanitize`` or ``REPRO_SANITIZE=1``)?"""
    return _armed


def arm() -> None:
    global _armed
    _armed = True


def disarm() -> None:
    global _armed
    _armed = False


def reset() -> None:
    """Clear draw counts, violations, and any leaked scopes."""
    _draws.clear()
    _violations.clear()
    _violation_keys.clear()
    _scopes.clear()


@contextmanager
def sanitizing(on: bool = True):
    """Arm the sanitizer for the block (and export :data:`ENV_VAR` so
    worker processes spawned inside arm themselves on import)."""
    if not on:
        yield
        return
    global _armed
    previous_armed = _armed
    previous_env = os.environ.get(ENV_VAR)
    _armed = True
    os.environ[ENV_VAR] = "1"
    try:
        yield
    finally:
        _armed = previous_armed
        if previous_env is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous_env


# -- violations --------------------------------------------------------------


def _record(key: tuple, message: str) -> None:
    if key in _violation_keys:
        return
    _violation_keys.add(key)
    if len(_violations) < MAX_VIOLATIONS:
        _violations.append((key, message))


def violations() -> list[str]:
    return [message for _, message in _violations]


def ok() -> bool:
    return not _violations


# -- provenance-tagged streams -----------------------------------------------


class TrackedRandom(random.Random):
    """A seeded stream that knows where it came from.

    Seeded exactly like the ``random.Random(seed_value)`` it replaces
    (the Mersenne state is identical, so every draw is identical);
    additionally counts underlying draws per ``(seed, purpose)`` key
    and checks the active :func:`scope` on each one.  Only
    ``random()`` and ``getrandbits()`` need intercepting — every other
    generator method (``randint``, ``shuffle``, ``gauss``, ...)
    bottoms out in one of the two.
    """

    def __init__(self, seed_value, purpose: str) -> None:
        self._repro_key: str | None = None  # draws during seeding don't count
        super().__init__(seed_value)
        self._repro_purpose = purpose
        self._repro_key = f"{purpose}@{seed_value}"

    def _note_draw(self) -> None:
        key = self._repro_key
        if key is None:
            return
        _draws[key] = _draws.get(key, 0) + 1
        if _scopes:
            allowed = _scopes[-1]
            if self._repro_purpose not in allowed:
                _record(
                    ("cross-stream", self._repro_purpose, allowed),
                    f"cross-stream draw: stream {key!r} drawn inside "
                    f"scope {'/'.join(allowed)!r}",
                )

    def random(self) -> float:
        self._note_draw()
        return super().random()

    def getrandbits(self, k: int) -> int:
        self._note_draw()
        return super().getrandbits(k)


_NULL_SCOPE = nullcontext()


class _Scope:
    __slots__ = ("purposes",)

    def __init__(self, purposes: tuple[str, ...]) -> None:
        self.purposes = purposes

    def __enter__(self) -> "_Scope":
        _scopes.append(self.purposes)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _scopes.pop()
        return False


def scope(*purposes: str):
    """Only streams with one of *purposes* may draw inside the block.

    A no-op (shared null context) while the sanitizer is disarmed, so
    instrumented call sites cost one branch when off.
    """
    if not _armed:
        return _NULL_SCOPE
    return _Scope(purposes)


# -- draw-count reports ------------------------------------------------------


def snapshot_draws() -> dict[str, int]:
    """Per-stream draw counts so far, in sorted-key order (picklable)."""
    return dict(sorted(_draws.items()))


def drain_draws() -> dict[str, int]:
    """Snapshot-and-clear the draw counts ({} while disarmed/empty)."""
    snap = snapshot_draws()
    _draws.clear()
    return snap


def drain_worker_state() -> tuple[dict[str, int], list[tuple[tuple, str]]]:
    """Snapshot-and-clear draws and violations: a pool task's share."""
    violations_ = list(_violations)
    _violations.clear()
    _violation_keys.clear()
    return drain_draws(), violations_


def merge_worker_state(state: tuple[dict[str, int], list[tuple[tuple, str]]]) -> None:
    """Fold a worker's drained share in as if it had happened here."""
    draws, violations_ = state
    merge_draws(_draws, draws)
    for key, message in violations_:
        _record(key, message)


def merge_draws(into: dict[str, int], more: dict[str, int]) -> dict[str, int]:
    """Fold *more* into *into* (sums per stream key); returns *into*."""
    for key, count in more.items():
        into[key] = into.get(key, 0) + count
    return into


def compare_draws(a: dict[str, int], b: dict[str, int]) -> list[str]:
    """Stream-by-stream divergence between two draw reports.

    Empty means the two runs consumed every stream identically — the
    serial vs ``--jobs N`` draw-count invariant.
    """
    problems = []
    for key in sorted(set(a) | set(b)):
        left, right = a.get(key, 0), b.get(key, 0)
        if left != right:
            problems.append(f"draw-count divergence on {key!r}: {left} != {right}")
    return problems


def summary(drained: dict[str, int] | None = None) -> str:
    """One line for the CLI: streams, draws, violations.  *drained*
    adds the counts a run already drained onto its results."""
    draws = merge_draws(snapshot_draws(), drained or {})
    verdict = "ok" if ok() else f"{len(_violations)} violation(s)"
    return f"sanitizer: {len(draws)} stream(s), {sum(draws.values())} draw(s), {verdict}"
