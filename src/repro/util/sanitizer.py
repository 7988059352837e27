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
* :func:`check_stream_site` — audits every ``child_rng`` construction
  against :data:`STREAM_REGISTRY` / :data:`PREFIX_REGISTRY`: an
  unregistered purpose, or a purpose family built at more source lines
  than the registry allows (two subsystems aliased onto one sequence),
  is a **stream-purpose** violation.
* :func:`drain_draws` / :func:`compare_draws` — per-stream draw
  counts, shipped back from worker processes on
  ``RunResult.rng_draws`` and merged in seed order, so a serial run
  and a ``--jobs N`` run can be diffed stream by stream
  (**draw-count divergence**).  Draws a pool task leaves undrained,
  its violations and the stream sites it saw ship back through
  :func:`drain_worker_state` / :func:`merge_worker_state`
  (:mod:`repro.util.fanout` calls them).

Arming: ``repro-bench ... --sanitize`` enters :func:`sanitizing`,
which also exports ``REPRO_SANITIZE=1`` so pool worker processes arm
themselves on import.  Everything here is stdlib-only and imports
nothing from the rest of ``repro``, so any layer may use it.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager, nullcontext
from pathlib import PurePath

ENV_VAR = "REPRO_SANITIZE"
MAX_VIOLATIONS = 200

_armed = os.environ.get(ENV_VAR) == "1"
_scopes: list[tuple[str, ...]] = []
_draws: dict[str, int] = {}
_violations: list[tuple[tuple, str]] = []  # (dedupe key, message)
_violation_keys: set[tuple] = set()
_sites: dict[str, set[tuple[str, int]]] = {}  # purpose family -> (file, line)


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
    """Clear draw counts, violations, stream sites and any leaked scopes."""
    _draws.clear()
    _violations.clear()
    _violation_keys.clear()
    _scopes.clear()
    _sites.clear()


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


# -- stream registry ---------------------------------------------------------
#
# ``child_rng(seed, purpose)`` seeds its stream with f"{seed}:{purpose}",
# so one purpose built in two subsystems aliases both onto one sequence,
# and renaming a purpose changes every pinned digest built from it.  The
# aliasing is deterministic and each site draws inside its own matching
# scope, so neither the parity harness nor the scope check sees it; the
# registry below does.  **Do not rename existing purposes** — register
# the new site instead.

# Literal purpose -> number of construction sites (source lines) allowed.
STREAM_REGISTRY: dict[str, int] = {
    "2pc-client": 1,   # sharded cluster client-side 2PC jitter
    "client": 1,       # replication group client jitter
    "image": 2,        # crash-image tear: chaos harness + sharded cluster
    "net": 1,          # chaos harness network-fault placement
    "stall": 1,        # chaos harness prepare-stall placement
}

# f-string purposes, keyed by their text through the first ":".
PREFIX_REGISTRY: dict[str, int] = {
    "chaos-load:": 1,    # per-(point, kind) fault-window placement
    "load-arrival:": 1,  # per-(point, stream) open-loop arrivals
    "load-cluster:": 1,  # per-point cluster workload stream
    "load-image:": 1,    # per-point crash-image tear under load
    "load-retry:": 1,    # per-point retry backoff jitter
}

# (file, function) allowed any purpose: the fault injector's per-kind
# streams, whose kind names are themselves a checked registry.
DYNAMIC_SITES = frozenset({("repro/faults/injector.py", "stream")})


def is_sim_path(path) -> bool:
    """Simulation code, unless it looks like a test: ``test_*.py``,
    ``conftest.py``, or anything under a ``tests``/``benchmarks``
    directory.  ``repro-lint`` and the stream check share this rule, so
    tests may build streams with ad-hoc purposes."""
    path = PurePath(path)
    if path.name.startswith("test_") or path.name == "conftest.py":
        return False
    return not (set(path.parts) & {"tests", "benchmarks"})


def _stream_family(purpose: str) -> str | None:
    """The registry key *purpose* belongs to, or None if unregistered."""
    if purpose in STREAM_REGISTRY:
        return purpose
    head, colon, _ = purpose.partition(":")
    return head + colon if colon and head + colon in PREFIX_REGISTRY else None


def check_stream_site(purpose: str, frame) -> None:
    """Audit one ``child_rng(seed, purpose)`` call made from *frame*.

    Called only while armed.  A site is the caller's (file, line); a
    violation is an unregistered purpose, or a family built at more
    sites than the registry allows.
    """
    code = frame.f_code
    path = code.co_filename
    if not is_sim_path(path):
        return
    posix = PurePath(path).as_posix()
    if any(posix.endswith(f) and code.co_name == fn for f, fn in DYNAMIC_SITES):
        return
    site = (path, frame.f_lineno)
    family = _stream_family(purpose)
    if family is None:
        _record(
            ("stream-purpose",) + site,
            f"stream-purpose: {purpose!r} at {path}:{site[1]} is not in "
            f"repro.util.sanitizer.STREAM_REGISTRY or PREFIX_REGISTRY",
        )
    else:
        _note_site(family, site)


def _note_site(family: str, site: tuple[str, int]) -> None:
    sites = _sites.setdefault(family, set())
    if site in sites:
        return
    sites.add(site)
    allowed = STREAM_REGISTRY.get(family) or PREFIX_REGISTRY[family]
    if len(sites) > allowed:
        _record(
            ("stream-sites", family) + site,
            f"stream-purpose: {family!r} built at {len(sites)} sites, "
            f"registry allows {allowed} (now {site[0]}:{site[1]}) — "
            f"duplicate purposes alias RNG streams",
        )


# -- draw-count reports ------------------------------------------------------


def snapshot_draws() -> dict[str, int]:
    """Per-stream draw counts so far, in sorted-key order (picklable)."""
    return dict(sorted(_draws.items()))


def drain_draws() -> dict[str, int]:
    """Snapshot-and-clear the draw counts ({} while disarmed/empty)."""
    snap = snapshot_draws()
    _draws.clear()
    return snap


def drain_worker_state() -> tuple:
    """Snapshot-and-clear draws, violations and stream sites: a pool
    task's share."""
    violations_ = list(_violations)
    _violations.clear()
    _violation_keys.clear()
    sites = sorted((family, *site) for family, s in _sites.items() for site in s)
    _sites.clear()
    return drain_draws(), violations_, sites


def merge_worker_state(state: tuple) -> None:
    """Fold a worker's drained share in as if it had happened here."""
    draws, violations_, sites = state
    merge_draws(_draws, draws)
    for key, message in violations_:
        _record(key, message)
    for family, path, line in sites:
        _note_site(family, (path, line))


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
