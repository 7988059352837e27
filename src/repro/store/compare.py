"""The comparison engine: diff two runs, chart one metric's history.

Every comparison states its threshold explicitly:

* **perf** (``bench`` vs ``bench``) — events/sec and txns/sec deltas;
  a drop beyond :data:`PERF_REGRESSION_TOLERANCE` is flagged (the
  ``repro-bench perf --check`` CI gate uses the same constant).
* **latency** (``load`` vs ``load``) — per-multiplier p50/p99/p999 and
  achieved-throughput deltas; a p999 increase beyond
  :data:`P999_REGRESSION_TOLERANCE` is flagged (the ``load --check``
  CI gate).
* **figure drift** (``figure`` vs ``figure``) — per-cell relative
  error; any cell beyond :data:`FIGURE_DRIFT_TOLERANCE` is flagged.
  Same-seed runs must show **zero** drift.
* **chaos verdicts** (``chaos`` vs ``chaos``) — pass/fail flips,
  failed-invariant set changes, recovered-state digest changes.

Two runs with equal fingerprints are *identical by construction* and
the diff says so without walking the payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.store.fsdb import RunStore
from repro.store.schema import BENCH, CHAOS, FIGURE, LOAD, RunRecord

PERF_REGRESSION_TOLERANCE = 0.30
"""Flag a bench diff, or fail ``perf --check``, when events/sec drops by
more than this fraction."""

P999_REGRESSION_TOLERANCE = 0.30
"""Flag a load diff when p999 grows by more than this fraction."""

FIGURE_DRIFT_TOLERANCE = 0.01
"""Flag a figure cell whose relative error exceeds this fraction."""


@dataclass(frozen=True)
class DiffEntry:
    """One compared quantity: where it was, where it is, how far it moved."""

    metric: str
    a: float | None
    b: float | None
    flag: str = ""  # non-empty marks a threshold violation

    @property
    def delta(self) -> float | None:
        if self.a is None or self.b is None:
            return None
        return self.b - self.a

    @property
    def rel(self) -> float | None:
        """Relative change (b - a) / |a|; None when undefined."""
        if self.a is None or self.b is None or self.a == 0:
            return None
        return (self.b - self.a) / abs(self.a)


@dataclass(frozen=True)
class RunDiff:
    """The outcome of comparing run *a* against run *b*."""

    a_id: str
    b_id: str
    kind: str
    fingerprint_a: str
    fingerprint_b: str
    entries: tuple[DiffEntry, ...] = ()
    verdict_changes: tuple[str, ...] = ()

    @property
    def identical(self) -> bool:
        return self.fingerprint_a == self.fingerprint_b

    @property
    def regressions(self) -> tuple[str, ...]:
        flagged = tuple(e.flag for e in self.entries if e.flag)
        return flagged + self.verdict_changes

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict:
        return {
            "a": self.a_id,
            "b": self.b_id,
            "kind": self.kind,
            "fingerprint_a": self.fingerprint_a,
            "fingerprint_b": self.fingerprint_b,
            "identical": self.identical,
            "ok": self.ok,
            "entries": [
                {
                    "metric": e.metric,
                    "a": e.a,
                    "b": e.b,
                    "delta": e.delta,
                    "rel": e.rel,
                    "flag": e.flag,
                }
                for e in self.entries
            ],
            "verdict_changes": list(self.verdict_changes),
            "regressions": list(self.regressions),
        }


# -- kind-specific comparisons ------------------------------------------------


def _bench_entries(a: RunRecord, b: RunRecord) -> list[DiffEntry]:
    entries = []
    for metric, path in (
        ("replay.events_per_sec", ("replay", "events_per_sec")),
        ("engine.txns_per_sec", ("engine", "txns_per_sec")),
        ("figure_sweep.wall_s", ("figure_sweep", "wall_s")),
    ):
        va = _dig(a.payload, path)
        vb = _dig(b.payload, path)
        flag = ""
        if (
            metric != "figure_sweep.wall_s"
            and isinstance(va, (int, float))
            and isinstance(vb, (int, float))
            and va > 0
            and (vb - va) / va < -PERF_REGRESSION_TOLERANCE
        ):
            flag = (
                f"perf-regression:{metric} dropped "
                f"{(va - vb) / va:.0%} (> {PERF_REGRESSION_TOLERANCE:.0%})"
            )
        entries.append(DiffEntry(metric, _num(va), _num(vb), flag))
    return entries


_LOAD_POINT_METRICS = ("achieved_tps", "p50_us", "p99_us", "p999_us")


def _load_entries(a: RunRecord, b: RunRecord) -> list[DiffEntry]:
    entries = [
        DiffEntry(
            "capacity_tps",
            _num(a.payload.get("capacity_tps")),
            _num(b.payload.get("capacity_tps")),
        )
    ]
    points_a = {p.get("multiplier"): p for p in a.payload.get("points", [])}
    points_b = {p.get("multiplier"): p for p in b.payload.get("points", [])}
    for multiplier in sorted(set(points_a) & set(points_b), key=float):
        pa, pb = points_a[multiplier], points_b[multiplier]
        for metric in _LOAD_POINT_METRICS:
            va, vb = _num(pa.get(metric)), _num(pb.get(metric))
            flag = ""
            if (
                metric == "p999_us"
                and va is not None
                and vb is not None
                and va > 0
                and (vb - va) / va > P999_REGRESSION_TOLERANCE
            ):
                flag = (
                    f"p999-regression:x{multiplier:g} grew "
                    f"{(vb - va) / va:.0%} (> {P999_REGRESSION_TOLERANCE:.0%})"
                )
            entries.append(DiffEntry(f"x{multiplier:g}.{metric}", va, vb, flag))
        entries.extend(_chaos_point_entries(multiplier, pa, pb))
    return entries


def _chaos_point_entries(multiplier, pa: dict, pb: dict) -> list[DiffEntry]:
    """Chaos-sweep deltas for one multiplier: tail blowup and verdicts.

    The fault-window p999 blowup gates like p999 itself (same
    tolerance, and the flag says "p999" so the ``load --check`` gate
    picks it up); a degraded-mode verdict flipping ok -> fail is always
    flagged.  Classic points (no ``chaos`` block on either side)
    contribute nothing, so pre-chaos diffs are unchanged.
    """
    ca, cb = pa.get("chaos"), pb.get("chaos")
    if not isinstance(ca, dict) or not isinstance(cb, dict):
        return []
    entries = []
    va, vb = _num(ca.get("p999_blowup")), _num(cb.get("p999_blowup"))
    flag = ""
    if (
        va is not None
        and vb is not None
        and va > 0
        and (vb - va) / va > P999_REGRESSION_TOLERANCE
    ):
        flag = (
            f"p999-blowup-regression:x{multiplier:g} fault-window tail grew "
            f"{(vb - va) / va:.0%} (> {P999_REGRESSION_TOLERANCE:.0%})"
        )
    entries.append(DiffEntry(f"x{multiplier:g}.chaos.p999_blowup", va, vb, flag))
    verdicts_a = {v.get("name"): bool(v.get("ok")) for v in ca.get("verdicts", [])}
    verdicts_b = {v.get("name"): bool(v.get("ok")) for v in cb.get("verdicts", [])}
    for name in sorted(set(verdicts_a) & set(verdicts_b)):
        ok_a, ok_b = verdicts_a[name], verdicts_b[name]
        flag = (
            f"degraded-verdict:{name} flipped ok -> fail at x{multiplier:g}"
            if ok_a and not ok_b
            else ""
        )
        entries.append(
            DiffEntry(
                f"x{multiplier:g}.verdict.{name}",
                1.0 if ok_a else 0.0,
                1.0 if ok_b else 0.0,
                flag,
            )
        )
    return entries


def _figure_entries(a: RunRecord, b: RunRecord) -> list[DiffEntry]:
    panels_a = {p["figure_id"]: p for p in a.payload.get("panels", [])}
    panels_b = {p["figure_id"]: p for p in b.payload.get("panels", [])}
    entries = []
    for figure_id in sorted(set(panels_a) & set(panels_b)):
        cells_a = {
            (c["system"], c["x"]): c for c in panels_a[figure_id]["cells"]
        }
        cells_b = {
            (c["system"], c["x"]): c for c in panels_b[figure_id]["cells"]
        }
        for key in sorted(set(cells_a) & set(cells_b)):
            va = _num(cells_a[key].get("value"))
            vb = _num(cells_b[key].get("value"))
            flag = ""
            if va is not None and vb is not None:
                drift = abs(vb - va) / abs(va) if va != 0 else abs(vb - va)
                if drift > FIGURE_DRIFT_TOLERANCE:
                    flag = (
                        f"figure-drift:{figure_id} {key[0]}@{key[1]} moved "
                        f"{drift:.1%} (> {FIGURE_DRIFT_TOLERANCE:.0%})"
                    )
            entries.append(
                DiffEntry(f"{figure_id}.{key[0]}@{key[1]}", va, vb, flag)
            )
    return entries


def _chaos_changes(a: RunRecord, b: RunRecord) -> tuple[str, ...]:
    changes = []
    cells_a = {
        (c.get("system"), c.get("workload"), c.get("seed")): c
        for c in a.verdicts.get("cells", [])
    }
    cells_b = {
        (c.get("system"), c.get("workload"), c.get("seed")): c
        for c in b.verdicts.get("cells", [])
    }
    for key in sorted(
        set(cells_a) & set(cells_b), key=lambda k: tuple(str(p) for p in k)
    ):
        ca, cb = cells_a[key], cells_b[key]
        label = "/".join(str(part) for part in key if part is not None)
        if ca.get("ok") and not cb.get("ok"):
            failed = ", ".join(cb.get("failed_invariants", [])) or "(unnamed)"
            changes.append(f"chaos-verdict:{label} flipped PASS -> FAIL ({failed})")
        elif not ca.get("ok") and cb.get("ok"):
            changes.append(f"chaos-fixed:{label} flipped FAIL -> PASS")
        elif sorted(ca.get("failed_invariants", [])) != sorted(
            cb.get("failed_invariants", [])
        ):
            changes.append(
                f"chaos-verdict:{label} failing invariants changed "
                f"{ca.get('failed_invariants')} -> {cb.get('failed_invariants')}"
            )
        elif ca.get("digest") != cb.get("digest"):
            changes.append(
                f"chaos-digest:{label} recovered-state digest changed "
                f"{ca.get('digest')} -> {cb.get('digest')}"
            )
    only_a = sorted(set(cells_a) - set(cells_b), key=str)
    only_b = sorted(set(cells_b) - set(cells_a), key=str)
    for key in only_a:
        changes.append(f"chaos-cell-removed:{'/'.join(str(p) for p in key)}")
    for key in only_b:
        changes.append(f"chaos-cell-added:{'/'.join(str(p) for p in key)}")
    return tuple(changes)


def diff_runs(a: RunRecord, b: RunRecord) -> RunDiff:
    """Compare two runs of the same kind; raises ValueError on a mix."""
    if a.kind != b.kind:
        raise ValueError(
            f"cannot diff a {a.kind} run against a {b.kind} run"
        )
    entries: list[DiffEntry] = []
    verdict_changes: tuple[str, ...] = ()
    if a.kind == BENCH:
        entries = _bench_entries(a, b)
    elif a.kind == LOAD:
        entries = _load_entries(a, b)
    elif a.kind == FIGURE:
        entries = _figure_entries(a, b)
    elif a.kind == CHAOS:
        verdict_changes = _chaos_changes(a, b)
    return RunDiff(
        a_id=a.run_id or "a",
        b_id=b.run_id or "b",
        kind=a.kind,
        fingerprint_a=a.fingerprint(),
        fingerprint_b=b.fingerprint(),
        entries=tuple(entries),
        verdict_changes=verdict_changes,
    )


def render_diff(diff: RunDiff) -> str:
    header = f"diff {diff.a_id} -> {diff.b_id} [{diff.kind}]"
    lines = [header, "-" * len(header)]
    if diff.identical:
        lines.append(
            f"fingerprints identical ({diff.fingerprint_a}): zero drift"
        )
    else:
        lines.append(
            f"fingerprints differ: {diff.fingerprint_a} -> {diff.fingerprint_b}"
        )
    if diff.entries:
        width = max(len(e.metric) for e in diff.entries) + 2
        for e in diff.entries:
            a_txt = "-" if e.a is None else f"{e.a:,.1f}"
            b_txt = "-" if e.b is None else f"{e.b:,.1f}"
            rel = "" if e.rel is None else f"  ({e.rel:+.1%})"
            mark = "  <-- " + e.flag if e.flag else ""
            lines.append(f"  {e.metric:<{width}}{a_txt:>14} -> {b_txt:>14}{rel}{mark}")
    for change in diff.verdict_changes:
        lines.append(f"  VERDICT: {change}")
    if diff.kind == CHAOS and not diff.verdict_changes:
        lines.append("  chaos verdicts unchanged")
    lines.append(
        "ok: no thresholds tripped" if diff.ok
        else "REGRESSIONS: " + "; ".join(diff.regressions)
    )
    return "\n".join(lines)


# -- metric histories ---------------------------------------------------------

METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "events_per_sec": (BENCH, ("replay", "events_per_sec")),
    "txns_per_sec": (BENCH, ("engine", "txns_per_sec")),
    "capacity_tps": (LOAD, ("capacity_tps",)),
    "p50_us": (LOAD, ("@x1", "p50_us")),
    "p99_us": (LOAD, ("@x1", "p99_us")),
    "p999_us": (LOAD, ("@x1", "p999_us")),
    "chaos_ok": (CHAOS, ("@verdict", "ok")),
}
"""Named metrics ``repro-bench history`` understands, mapped to
``(record kind, extraction path)``.  ``@x1`` selects the load point at
multiplier 1.0 (falling back to the last point); ``@verdict`` reads
from the verdicts section instead of the payload."""


def _dig(mapping, path):
    value = mapping
    for part in path:
        if not isinstance(value, dict):
            return None
        value = value.get(part)
    return value


def _num(value):
    if isinstance(value, bool):
        return float(value)
    return float(value) if isinstance(value, (int, float)) else None


def extract_metric(record: RunRecord, metric: str) -> float | None:
    """Resolve *metric* against one run (named, or a dotted payload path)."""
    if metric in METRICS:
        kind, path = METRICS[metric]
        if record.kind != kind:
            return None
        if path[0] == "@x1":
            points = record.payload.get("points", [])
            at_one = next(
                (p for p in points if p.get("multiplier") == 1.0),
                points[-1] if points else None,
            )
            return _num(_dig(at_one or {}, path[1:]))
        if path[0] == "@verdict":
            return _num(_dig(record.verdicts, path[1:]))
        return _num(_dig(record.payload, path))
    return _num(_dig(record.payload, tuple(metric.split("."))))


def metric_history(
    store: RunStore, metric: str, *, kind: str | None = None
) -> list[tuple[str, float]]:
    """``(run_id, value)`` for every run where *metric* resolves, oldest
    first — the trajectory the dashboard sparklines plot."""
    history = []
    for run_id in store.run_ids():
        record = store.get(run_id)
        if kind is not None and record.kind != kind:
            continue
        value = extract_metric(record, metric)
        if value is not None:
            history.append((run_id, value))
    return history


def _spark(values: list[float]) -> str:
    """A one-line unicode sparkline (terminal sibling of the SVG ones)."""
    blocks = "▁▂▃▄▅▆▇█"
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return blocks[0] * len(values)
    span = hi - lo
    return "".join(
        blocks[min(len(blocks) - 1, int((v - lo) / span * len(blocks)))]
        for v in values
    )


def render_history(metric: str, history: list[tuple[str, float]]) -> str:
    header = f"history of {metric} ({len(history)} run(s))"
    lines = [header, "-" * len(header)]
    if not history:
        lines.append("no runs carry this metric")
        return "\n".join(lines)
    width = max(len(run_id) for run_id, _ in history) + 2
    for run_id, value in history:
        lines.append(f"  {run_id:<{width}}{value:>16,.1f}")
    values = [value for _, value in history]
    lines.append(f"  trend {_spark(values)}  min {min(values):,.1f}  max {max(values):,.1f}")
    return "\n".join(lines)


# -- the load --check gate ----------------------------------------------------

_LOAD_BASELINE_KEYS = (
    "system", "mix", "backend", "process", "clients", "streams",
    "events_per_point", "think_ms", "servers", "shards", "replicas",
    "ack", "fault_rate", "seed",
    # Chaos sweeps only compare against baselines with the identical
    # fault schedule and resilience policy; classic runs carry None for
    # both, which `.get()` also yields for stored runs that predate
    # the keys — old baselines keep matching.
    "chaos", "resilience",
)


def _load_spec_key(record: RunRecord) -> tuple:
    """The experiment a load run measured: its spec's comparison fields
    plus the sweep's base rate and multipliers, which only its payload
    carries.  A calibrated run's base rate is its probed capacity, so
    it keys as ``None``: calibrated runs match however capacity moved.
    """
    payload = record.payload
    base_rate = payload.get("base_rate_tps")
    if base_rate == payload.get("capacity_tps"):
        base_rate = None
    multipliers = tuple(point.get("multiplier") for point in payload.get("points", []))
    return tuple((key, record.spec.get(key)) for key in _LOAD_BASELINE_KEYS) + (
        ("base_rate_tps", base_rate),
        ("multipliers", multipliers),
    )


def find_load_baseline(
    fresh: RunRecord, candidates: list[RunRecord]
) -> RunRecord | None:
    """The most recent candidate that ran the same experiment as *fresh*
    (every comparison-relevant spec field, the base rate and the sweep
    multipliers), so latencies are directly comparable.

    Tolerant of old or malformed candidates: a record whose spec or
    payload is not a dict (hand-edited store files) is skipped, not
    fatal — the gate must never crash on old history.
    """
    key = _load_spec_key(fresh)
    matching = []
    for record in candidates:
        if record is None or record.kind != LOAD:
            continue
        try:
            if _load_spec_key(record) == key:
                matching.append(record)
        except (AttributeError, TypeError):
            continue
    if not matching:
        return None
    return max(matching, key=lambda record: (record.created, record.run_id))


def check_load_regression(
    fresh: RunRecord, candidates: list[RunRecord]
) -> tuple[str, bool]:
    """The ``repro-bench load --check`` gate; returns (report, ok).

    Compares *fresh* against the most recent committed baseline with an
    identical spec and fails on any per-multiplier p999 growth beyond
    :data:`P999_REGRESSION_TOLERANCE`.  No comparable baseline is not a
    failure — the gate reports so and passes (first run of a new spec).
    """
    baseline = find_load_baseline(fresh, candidates)
    if baseline is None:
        return (
            "load check: no comparable baseline record "
            "(same system/mix/backend/seed) — nothing to gate against",
            True,
        )
    diff = diff_runs(baseline, fresh)
    gate_flags = [
        flag
        for flag in diff.regressions
        if "p999" in flag or "degraded-verdict" in flag
    ]
    lines = [
        f"load check vs {baseline.run_id or 'committed baseline'} "
        f"({baseline.created or 'undated'}):"
    ]
    if diff.identical:
        lines.append("  fingerprints identical: zero drift")
    for entry in diff.entries:
        interesting = (
            entry.metric.endswith("p999_us")
            or entry.metric.endswith("chaos.p999_blowup")
            or ".verdict." in entry.metric
        )
        if not interesting:
            continue
        rel = "" if entry.rel is None else f" ({entry.rel:+.1%})"
        a_txt = "-" if entry.a is None else f"{entry.a:,.1f}"
        b_txt = "-" if entry.b is None else f"{entry.b:,.1f}"
        mark = "  REGRESSION" if entry.flag else ""
        lines.append(f"  {entry.metric:<40}{a_txt:>12} -> {b_txt:>12}{rel}{mark}")
    ok = not gate_flags
    lines.append(
        f"  gate: p999 within {P999_REGRESSION_TOLERANCE:.0%} of baseline"
        if ok
        else "  GATE FAILED: " + "; ".join(gate_flags)
    )
    return "\n".join(lines), ok
