"""Persistent run store, comparison engine & dashboard — ``repro.store``.

Every benchmark producer (``repro-bench perf`` / ``load`` / ``chaos`` /
figure runs) can persist its outcome as a **run**: a per-run directory
under ``benchmarks/store/`` holding the full spec, host provenance, the
result payload, invariant verdicts, optional obs metrics, and a
deterministic content fingerprint.  The store is append-only: runs are
written once and never mutated, so the directory accumulates the
repository's complete measurement history.

On top of the store sit a comparison engine (``repro-bench diff`` /
``history`` — perf deltas, figure drift, chaos-verdict changes,
latency-percentile regressions with explicit thresholds) and a
stdlib-only HTTP API + single-page dashboard (``repro-bench serve``).

The fingerprint contract (see :mod:`repro.store.fingerprint`): volatile
fields — wall-clock timestamps, host provenance, self-measured rates —
are excluded, so two same-seed runs fingerprint identically whether
they ran serially or with ``--jobs N``, sanitized or plain, today or
next year.  ``repro-bench diff`` on two such runs reports **zero
drift**.
"""

from __future__ import annotations

from repro.store.compare import (
    FIGURE_DRIFT_TOLERANCE,
    P999_REGRESSION_TOLERANCE,
    PERF_REGRESSION_TOLERANCE,
    DiffEntry,
    RunDiff,
    check_load_regression,
    diff_runs,
    find_load_baseline,
    metric_history,
    render_diff,
    render_history,
)
from repro.store.fingerprint import VOLATILE_KEYS, canonical, fingerprint
from repro.store.fsdb import DEFAULT_STORE_DIR, RunStore
from repro.store.schema import (
    BENCH,
    CHAOS,
    FIGURE,
    KINDS,
    LOAD,
    SCHEMA_VERSION,
    RunRecord,
    bench_run,
    chaos_run,
    figure_run,
    load_run,
    summarize,
)

__all__ = [
    "BENCH",
    "CHAOS",
    "DEFAULT_STORE_DIR",
    "DiffEntry",
    "FIGURE",
    "FIGURE_DRIFT_TOLERANCE",
    "KINDS",
    "LOAD",
    "P999_REGRESSION_TOLERANCE",
    "PERF_REGRESSION_TOLERANCE",
    "RunDiff",
    "RunRecord",
    "RunStore",
    "SCHEMA_VERSION",
    "VOLATILE_KEYS",
    "bench_run",
    "canonical",
    "chaos_run",
    "check_load_regression",
    "find_load_baseline",
    "diff_runs",
    "figure_run",
    "fingerprint",
    "load_run",
    "metric_history",
    "render_diff",
    "render_history",
    "summarize",
]
