"""repro.obs — unified observability: spans, metrics, top-down, exporters.

The package facade re-exports the span-tracing API and the gated metric
helpers.  Everything here is stdlib-only and imports nothing from the
rest of ``repro`` except the equally import-cycle-free leaf helpers
(``repro.util.clock``, ``repro.util.timeunits``) — instrumented modules
(``core.machine``, ``engines.base``, ``storage.wal`` ...) can safely do
``from repro import obs`` even while the ``repro`` package itself is
still initialising.

Heavier pieces are deliberately *not* imported here:

* ``repro.obs.topdown`` — TMAM-style cycle attribution (imports
  ``repro.core``);
* ``repro.obs.exporters`` — Chrome trace-event / JSONL / Prometheus
  writers and the trace validator.

Import those explicitly where needed (the CLI and report layer do).
"""

from __future__ import annotations

from repro.obs.metrics import (
    REGISTRY,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    nearest_rank,
)
from repro.obs.tracing import (
    NOOP_SPAN,
    PHASE_COMPLETE,
    PHASE_INSTANT,
    Span,
    SpanEvent,
    Tracer,
    annotate,
    disable,
    drain_events,
    enable,
    enabled,
    mark,
    span,
    tracer,
    using_obs,
)

__all__ = [
    "NOOP_SPAN",
    "PHASE_COMPLETE",
    "PHASE_INSTANT",
    "REGISTRY",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanEvent",
    "Tracer",
    "annotate",
    "disable",
    "drain_events",
    "drain_metrics",
    "enable",
    "enabled",
    "inc",
    "mark",
    "merge_snapshots",
    "nearest_rank",
    "observe",
    "set_gauge",
    "span",
    "tracer",
    "using_obs",
]


# -- gated metric helpers ----------------------------------------------------
# Metrics follow the tracing switch: when observability is off these are
# single-branch no-ops, so instrumented hot paths stay free.

def inc(name: str, value: float = 1.0, **labels) -> None:
    if enabled():
        REGISTRY.inc(name, value, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    if enabled():
        REGISTRY.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels) -> None:
    if enabled():
        REGISTRY.observe(name, value, **labels)


def drain_metrics() -> dict:
    """Snapshot-and-clear the ambient registry ({} when disabled/empty)."""
    if not enabled():
        return {}
    snap = REGISTRY.drain()
    if not (snap["counters"] or snap["gauges"] or snap["histograms"]):
        return {}
    return snap
