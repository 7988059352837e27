"""The seeded-RNG factory idiom: every stream has a seed and a purpose.

All the determinism guarantees shipped so far — bit-identical
``--jobs N`` fan-out, byte-identical crash schedules with replication
on or off, obs-on/obs-off parity — reduce to one discipline: every
random stream is (a) seeded from the run's seed, (b) dedicated to one
purpose, and (c) never shared across purposes (so adding draws to one
stream cannot shift another).  This module is where that discipline
lives; ``repro-lint``'s *rng-factory* rule bans ``random.Random(...)``
construction anywhere else in sim code.

* :func:`root_rng` — a top-level stream seeded directly with the run
  seed (``random.Random(seed)``); *purpose* is a label for the
  sanitizer, not part of the seed derivation.
* :func:`child_rng` — a child stream seeded off ``(seed, purpose)``
  as ``random.Random(f"{seed}:{purpose}")``.  String seeding is
  deterministic across processes (no hash randomisation) and two
  purposes never collide, so adding a new child stream cannot perturb
  an existing one.

Both derivations are **pinned**: they reproduce the exact seeding the
call sites used before the factory existed, so every pinned digest
(``FaultInjector.schedule_digest``, chaos state digests, figure
fingerprints) is unchanged.

When the runtime sanitizer is armed (``repro-bench --sanitize`` or
``REPRO_SANITIZE=1``), the factories return a
:class:`repro.util.sanitizer.TrackedRandom` — a ``random.Random``
subclass with the identical seeded state that additionally records
per-stream draw counts and flags cross-stream draws — and
:func:`child_rng` checks its caller against the stream registry
(:func:`repro.util.sanitizer.check_stream_site`).  Sanitized runs are
bit-identical to plain runs; a disarmed call inspects no frame.
"""

from __future__ import annotations

import random
import sys

from repro.util import sanitizer


def root_rng(seed, purpose: str = "root") -> random.Random:
    """A top-level stream: ``random.Random(seed)``, labelled *purpose*."""
    if sanitizer.enabled():
        return sanitizer.TrackedRandom(seed, purpose)
    return random.Random(seed)


def child_rng(seed, purpose: str) -> random.Random:
    """A child stream seeded off ``(seed, purpose)``.

    Exactly ``random.Random(f"{seed}:{purpose}")`` — deterministic
    across processes and independent of every other purpose's stream.
    """
    seed_value = f"{seed}:{purpose}"
    if sanitizer.enabled():
        sanitizer.check_stream_site(purpose, sys._getframe(1))
        return sanitizer.TrackedRandom(seed_value, purpose)
    return random.Random(seed_value)
