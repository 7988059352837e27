"""repro.util — small stdlib-only helpers shared across the package.

Its modules are all deliberately tiny and import-cycle-free (they import
nothing from ``repro`` outside this package), so any layer — including
``repro.obs``, which must stay importable while the package is still
initialising — can use them:

* :mod:`repro.util.clock` — the **only** module where reading the host
  clock is legal.  Everything else routes display timing through
  :func:`~repro.util.clock.wall_timer` and self-measurement through
  :func:`~repro.util.clock.perf_timer`; a clock read that reaches a
  result fails the parity harness (``tests/test_parity.py``).
* :mod:`repro.util.rng` — the seeded-RNG factory idiom
  (:func:`~repro.util.rng.child_rng`, :func:`~repro.util.rng.root_rng`).
  ``repro-lint``'s rng-factory rule bans ``random.Random(...)``
  construction anywhere else in sim code.
* :mod:`repro.util.sanitizer` — the runtime RNG-stream sanitizer
  behind ``--sanitize``: provenance-tagged streams, cross-stream draw
  detection, serial vs parallel draw counts, and the ``child_rng``
  purpose registry (``STREAM_REGISTRY``) checked at each construction
  site while armed.
* :mod:`repro.util.timeunits` — the named ns/µs/ms/tick conversions
  that ``repro-lint``'s ``unit-mismatch`` rule accepts.
* :mod:`repro.util.stablehash` — :func:`~repro.util.stablehash.stable_hash`,
  the process-stable ``hash()`` replacement for placement decisions
  keyed by strings (builtin str hashing is randomized per process).
* :mod:`repro.util.backoff` — the one capped-exponential-backoff +
  seeded-jitter schedule shared by the replication ack loop, the 2PC
  resend loop, the engine retry loop, and the load driver's client
  retry policy.
* :mod:`repro.util.fanout` — the one process-pool fan-out,
  :func:`~repro.util.fanout.ordered_map` (results in task order,
  worker sanitizer state folded back), and the ambient ``--jobs``
  setting (:func:`~repro.util.fanout.using_jobs`).
"""

from repro.util.backoff import capped_backoff, jittered_backoff
from repro.util.clock import perf_timer, perf_timer_ns, timestamp, wall_timer
from repro.util.rng import child_rng, root_rng
from repro.util.stablehash import stable_hash

__all__ = [
    "capped_backoff",
    "child_rng",
    "jittered_backoff",
    "perf_timer",
    "perf_timer_ns",
    "root_rng",
    "stable_hash",
    "timestamp",
    "wall_timer",
]
