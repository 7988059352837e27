"""Run-record schema: what one persisted run is made of.

A :class:`RunRecord` is the unit the store writes and the comparison
engine reads.  Four record kinds cover today's producers:

* ``bench``  — ``repro-bench perf`` (simulator self-measurement);
* ``load``   — ``repro-bench load`` (open-loop saturation sweeps);
* ``chaos``  — ``repro-bench chaos`` (fault-injection verdicts);
* ``figure`` — figure regenerations (the paper's tables/plots).

Each carries the same five sections regardless of kind: ``spec`` (what
was asked for), ``provenance`` (who/where produced it), ``payload``
(the result itself), ``verdicts`` (invariant/gate outcomes) and
``metrics`` (an obs snapshot when one rode along).  The fingerprint is
computed over kind + spec + payload + verdicts + metrics with volatile
fields excluded (see :mod:`repro.store.fingerprint`).

Converters from the producers' dict shapes (the ``perf`` record, the
``load`` record, chaos suite cells, figure panels) live here so every
write path agrees on one layout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.store.fingerprint import fingerprint

SCHEMA_VERSION = 1

BENCH = "bench"
LOAD = "load"
CHAOS = "chaos"
FIGURE = "figure"
KINDS = (BENCH, LOAD, CHAOS, FIGURE)

_DIGEST_RE = re.compile(r"digest (\d+)")


@dataclass(frozen=True)
class RunRecord:
    """One persisted run (append-only once written)."""

    kind: str
    spec: dict
    provenance: dict
    payload: dict
    verdicts: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    created: str = ""  # ISO timestamp; volatile, excluded from the fingerprint
    run_id: str = ""  # assigned by RunStore.put()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown run kind {self.kind!r}; known: {', '.join(KINDS)}"
            )

    def fingerprint(self) -> str:
        """Deterministic content fingerprint (see the module docstring)."""
        return fingerprint(
            {
                "kind": self.kind,
                "spec": self.spec,
                "payload": self.payload,
                "verdicts": self.verdicts,
                "metrics": self.metrics,
            }
        )


# -- converters from producer shapes -----------------------------------------


def bench_run(record: dict) -> RunRecord:
    """A ``bench`` run from one :func:`repro.bench.perf.collect_record` dict."""
    spec = {
        "quick": record.get("quick", False),
        "figures": list(record.get("figure_sweep", {}).get("figures", [])),
    }
    payload = {
        "replay": dict(record.get("replay", {})),
        "engine": dict(record.get("engine", {})),
        "figure_sweep": dict(record.get("figure_sweep", {})),
    }
    return RunRecord(
        kind=BENCH,
        spec=spec,
        provenance=dict(record.get("provenance", {})),
        payload=payload,
        created=record.get("timestamp", ""),
    )


def load_run(record: dict) -> RunRecord:
    """A ``load`` run from one :func:`repro.load.report.load_record` dict.

    Chaos sweeps (points carrying a ``chaos`` block) lift their
    degraded-mode verdicts into ``RunRecord.verdicts`` so the store's
    comparison engine can flag ok -> fail flips.  Only points at or
    below the capacity multiplier (x1.0) gate: past saturation the
    queue grows without bound by construction, so "recovers within N
    ticks" is not a meaningful promise there.
    """
    payload = {
        "capacity_tps": record.get("capacity_tps"),
        "base_rate_tps": record.get("base_rate_tps"),
        "points": list(record.get("points", [])),
    }
    verdicts: dict = {}
    chaos_points = [
        p
        for p in payload["points"]
        if isinstance(p, dict) and isinstance(p.get("chaos"), dict)
    ]
    if chaos_points:
        gated = [p for p in chaos_points if (p.get("multiplier") or 0.0) <= 1.0]
        degraded: dict[str, bool] = {}
        for point in gated:
            for v in point["chaos"].get("verdicts", []):
                name = str(v.get("name"))
                degraded[name] = degraded.get(name, True) and bool(v.get("ok"))
        verdicts = {
            "ok": all(degraded.values()) if degraded else True,
            "degraded": degraded,
            "gated_multipliers": [p.get("multiplier") for p in gated],
        }
    return RunRecord(
        kind=LOAD,
        spec=dict(record.get("spec", {})),
        provenance=dict(record.get("provenance", {})),
        payload=payload,
        verdicts=verdicts,
        created=record.get("timestamp", ""),
    )


def chaos_run(spec: dict, cells: list[dict], ok: bool, *, created: str = "",
              provenance: dict | None = None) -> RunRecord:
    """A ``chaos`` run from the suite's per-cell outcomes.

    *cells* are the dicts ``run_chaos_suite(..., collect=...)`` emits:
    ``{"system", "workload", "ok", "failed_invariants", "report"}``.
    The per-cell recovered-state digest is lifted out of the rendered
    report (itself a pure function of the seed) so verdict comparisons
    can tell "same pass, different recovered state" from "identical".
    """
    for cell in cells:
        if "digest" not in cell:
            match = _DIGEST_RE.search(cell.get("report", ""))
            cell["digest"] = int(match.group(1)) if match else None
    failed = sorted(
        {name for cell in cells for name in cell.get("failed_invariants", ())}
    )
    verdicts = {
        "ok": ok,
        "failed_invariants": failed,
        "cells": [
            {
                "system": cell.get("system"),
                "workload": cell.get("workload"),
                "seed": cell.get("seed"),
                "ok": cell.get("ok"),
                "failed_invariants": sorted(cell.get("failed_invariants", ())),
                "digest": cell.get("digest"),
            }
            for cell in cells
        ],
    }
    return RunRecord(
        kind=CHAOS,
        spec=spec,
        provenance=dict(provenance or {}),
        payload={"cells": cells},
        verdicts=verdicts,
        created=created,
    )


def figure_run(panels, *, quick: bool = False, created: str = "",
               provenance: dict | None = None) -> RunRecord:
    """A ``figure`` run from a list of :class:`FigureResult` panels.

    Cells are flattened to scalars (the figure's plotted metric) plus
    the six-component stall breakdown when the metric has one — the
    exact numbers drift comparisons care about.
    """
    from repro.bench.results import IPC, PERCENT_ENGINE
    from repro.core.metrics import STALL_COMPONENTS

    panel_payloads = []
    for panel in panels:
        cells = []
        for system in panel.systems:
            for x in panel.x_values:
                cell: dict = {
                    "system": system,
                    "x": x,
                    "value": panel.value(system, x),
                }
                if panel.metric not in (IPC, PERCENT_ENGINE):
                    b = panel.breakdown(system, x)
                    cell["breakdown"] = {
                        c: getattr(b, c) for c in STALL_COMPONENTS
                    }
                cells.append(cell)
        panel_payloads.append(
            {
                "figure_id": panel.figure_id,
                "title": panel.title,
                "metric": panel.metric,
                "x_label": panel.x_label,
                "x_values": list(panel.x_values),
                "systems": list(panel.systems),
                "cells": cells,
            }
        )
    spec = {
        "figures": sorted({p["figure_id"] for p in panel_payloads}),
        "quick": quick,
    }
    return RunRecord(
        kind=FIGURE,
        spec=spec,
        provenance=dict(provenance or {}),
        payload={"panels": panel_payloads},
        created=created,
    )


# -- listing summaries --------------------------------------------------------


def summarize(record: RunRecord) -> dict:
    """The headline numbers a run listing shows (kind-specific)."""
    if record.kind == BENCH:
        replay = record.payload.get("replay", {})
        engine = record.payload.get("engine", {})
        return {
            "events_per_sec": replay.get("events_per_sec"),
            "txns_per_sec": engine.get("txns_per_sec"),
        }
    if record.kind == LOAD:
        spec = record.spec
        points = record.payload.get("points", [])
        at_one = next(
            (p for p in points if p.get("multiplier") == 1.0),
            points[-1] if points else {},
        )
        return {
            "system": spec.get("system"),
            "mix": spec.get("mix"),
            "backend": spec.get("backend"),
            "clients": spec.get("clients"),
            "capacity_tps": record.payload.get("capacity_tps"),
            "p999_us": at_one.get("p999_us"),
        }
    if record.kind == CHAOS:
        cells = record.verdicts.get("cells", [])
        return {
            "ok": record.verdicts.get("ok"),
            "cells": len(cells),
            "failed_invariants": record.verdicts.get("failed_invariants", []),
        }
    panels = record.payload.get("panels", [])
    return {
        "figures": record.spec.get("figures", []),
        "panels": len(panels),
        "cells": sum(len(p.get("cells", [])) for p in panels),
    }
