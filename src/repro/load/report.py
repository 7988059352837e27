"""Load-report rendering and the timestamped load record.

Two outputs with deliberately different determinism contracts:

* :func:`render_load_report` — the stdout report.  **No timestamps, no
  host facts**: CI byte-diffs it serial vs ``--jobs N`` and sanitized
  vs plain, so every character must be a pure function of the seed.
* :func:`load_record` — the record ``repro-bench load`` stores as a
  ``load`` run (:func:`repro.store.load_run` converts it).  Records
  carry wall-clock timestamps and provenance (git SHA, python,
  platform) because a load trajectory is only attributable with them;
  they never reach stdout.

Percentiles are nearest-rank over the merged seed-order sample list
(see :func:`repro.obs.nearest_rank`): actual samples, no
interpolation, identical across execution plans.
"""

from __future__ import annotations

from repro.bench.report import (
    PERCENTILES,
    _rule,
    percentile_label,
    render_latency_percentiles,
)
from repro.load.driver import LoadPointResult, LoadResult
from repro.obs import nearest_rank


def per_op_rows(point: LoadPointResult) -> dict[str, dict]:
    """Per-operation latency percentiles for one sweep point.

    Keys are operation labels in sorted order (read/update/insert for
    scenario mixes, new_order/payment/... for the sharded TPC-C mix); each
    value carries the sample count and nearest-rank p50/p99/p999 in
    microseconds.  Empty when the point predates per-op tracking.
    """
    rows: dict[str, dict] = {}
    for op, latencies in point.latencies_by_op().items():
        row = {"count": len(latencies)}
        for q in PERCENTILES:
            row[f"{percentile_label(q)}_us"] = nearest_rank(latencies, q) / 1000
        rows[op] = row
    return rows


def chaos_row(point: LoadPointResult) -> dict | None:
    """The chaos/resilience accounting of one point as a plain dict.

    ``None`` for classic points, so non-chaos records and reports are
    byte-identical to what they were before chaos-under-load existed.
    """
    c = point.chaos
    if c is None:
        return None
    return {
        "windows": [
            {"kind": w.kind, "start_ns": w.start_ns, "end_ns": w.end_ns}
            for w in c.windows
        ],
        "window_digest": c.window_digest,
        "shed": c.shed,
        "timeouts": c.timeouts,
        "retries": c.retries,
        "breaker_rejected": c.breaker_rejected,
        "breaker_opens": c.breaker_opens,
        "crashes": c.crashes,
        "succeeded": c.succeeded,
        "failed": c.failed,
        "goodput_tps": c.goodput_tps,
        "clean_p999_us": c.clean_p999_us,
        "degraded_p999_us": c.degraded_p999_us,
        "p999_blowup": c.p999_blowup,
        "problems": list(c.problems),
        "verdicts": [
            {
                "name": v.name,
                "ok": v.ok,
                "value": v.value,
                "threshold": v.threshold,
                "detail": v.detail,
            }
            for v in c.verdicts
        ],
    }


def saturation_rows(result: LoadResult) -> list[dict]:
    """The throughput-vs-offered-load curve as plain dicts (ns -> us)."""
    rows = []
    for point in result.points:
        latencies = point.latencies_ns
        row = {
            "multiplier": point.multiplier,
            "offered_tps": point.offered_tps,
            "achieved_tps": point.achieved_tps,
            "committed": point.committed,
            "aborted": point.aborted,
            "events": point.n_events,
            "mean_queueing_us": point.mean_queueing_ns() / 1000,
            "mean_service_us": point.mean_service_ns() / 1000,
        }
        for q in PERCENTILES:
            row[f"{percentile_label(q)}_us"] = (
                nearest_rank(latencies, q) / 1000 if latencies else None
            )
        row["by_op"] = per_op_rows(point)
        chaos = chaos_row(point)
        if chaos is not None:
            row["chaos"] = chaos
        rows.append(row)
    return rows


def _render_point(point: LoadPointResult) -> str:
    latencies = point.latencies_ns
    stretch = point.makespan_ns / point.horizon_ns if point.horizon_ns else 1.0
    lines = [
        f"x{point.multiplier:g} offered {point.offered_tps:,.0f} tps -> "
        f"achieved {point.achieved_tps:,.0f} tps  "
        f"({point.committed} committed, {point.aborted} aborted, "
        f"{point.n_events} events, makespan {stretch:.2f}x horizon)",
        f"  latency   {render_latency_percentiles(latencies)}",
        f"  queueing  mean {point.mean_queueing_ns() / 1000:,.1f}us   "
        f"service mean {point.mean_service_ns() / 1000:,.1f}us",
    ]
    by_op = point.latencies_by_op()
    if len(by_op) > 1:
        op_width = max(len(op) for op in by_op)
        for op, samples in by_op.items():
            lines.append(
                f"    {op:<{op_width}}  "
                f"{render_latency_percentiles(samples)}  (n={len(samples)})"
            )
    c = point.chaos
    if c is not None:
        windows = ", ".join(
            f"{w.kind}@[{w.start_ns / 1000:,.0f}us..{w.end_ns / 1000:,.0f}us]"
            for w in c.windows
        )
        lines.append(
            f"  chaos     {len(c.windows)} window"
            f"{'s' if len(c.windows) != 1 else ''}"
            + (f" ({windows})" if windows else "")
            + f"  digest {c.window_digest}"
        )
        lines.append(
            f"  resilience shed {c.shed}  timeouts {c.timeouts}  "
            f"retries {c.retries}  breaker open {c.breaker_opens} "
            f"(rejected {c.breaker_rejected})  crashes {c.crashes}"
        )
        clean = f"{c.clean_p999_us:,.1f}us" if c.clean_p999_us is not None else "-"
        deg = (
            f"{c.degraded_p999_us:,.1f}us" if c.degraded_p999_us is not None else "-"
        )
        lines.append(
            f"  goodput   {c.goodput_tps:,.0f} tps "
            f"({c.succeeded} ok, {c.failed} failed)  "
            f"p999 clean {clean} degraded {deg} (blowup {c.p999_blowup:.1f}x)"
        )
        for v in c.verdicts:
            mark = "ok  " if v.ok else "FAIL"
            lines.append(
                f"    [{mark}] {v.name}: {v.detail} "
                f"(value {v.value:,.2f}, threshold {v.threshold:,.2f})"
            )
        for problem in c.problems:
            lines.append(f"    [FAIL] {problem}")
    return "\n".join(lines)


def render_load_report(result: LoadResult) -> str:
    """The full sweep report (deterministic: safe to byte-diff)."""
    spec = result.spec
    arrival = spec.arrival
    header = (
        f"load {spec.system} x {spec.mix} [{spec.backend_label()}]: "
        f"{arrival.n_clients:,} clients, {arrival.process} arrivals"
    )
    lines = [header, _rule(len(header))]
    rate_src = "given" if spec.rate is not None else "probed capacity"
    lines.append(
        f"capacity ~{result.capacity_tps:,.0f} tps "
        f"({spec.servers} server slot{'s' if spec.servers != 1 else ''}); "
        f"base rate {result.base_rate:,.0f} tps ({rate_src}); "
        f"{arrival.n_events} events/point over "
        f"{arrival.streams()} arrival streams"
        + (f"; think {arrival.think_ms:g}ms" if arrival.think_ms > 0 else "")
    )
    if spec.chaos is not None:
        chaos = spec.chaos
        lines.append(
            f"chaos suite {chaos.suite!r}: {', '.join(chaos.kinds)} "
            f"x{chaos.windows_per_kind} window"
            f"{'s' if chaos.windows_per_kind != 1 else ''}/kind "
            f"({chaos.window_frac:.0%} of horizon each)"
        )
    if spec.resilience is not None:
        res = spec.resilience
        knobs = []
        if res.timeout_ms > 0:
            knobs.append(f"timeout {res.timeout_ms:g}ms")
        if res.max_retries > 0:
            knobs.append(
                f"retries {res.max_retries} "
                f"(backoff {res.backoff_base_ms}..{res.backoff_cap_ms}ms)"
            )
        if res.shed_depth > 0:
            knobs.append(f"shed at depth {res.shed_depth}")
        if res.breaker_threshold > 0:
            knobs.append(
                f"breaker {res.breaker_threshold} fails / {res.breaker_open_ms:g}ms"
            )
        lines.append("resilience " + ("; ".join(knobs) if knobs else "(no-op)"))
    for point in result.points:
        lines.append("")
        lines.append(_render_point(point))
    lines.append("")
    lines.append(render_saturation_curve(result))
    return "\n".join(lines)


def render_saturation_curve(result: LoadResult) -> str:
    """Aligned saturation table: offered vs achieved vs tail latency.

    Chaos sweeps grow three columns — client goodput, shed count and
    the fault-window p999 blowup; classic sweeps keep the exact
    pre-chaos table so existing CI byte-diffs stay valid.
    """
    rows = saturation_rows(result)
    with_chaos = any("chaos" in row for row in rows)
    head = (
        f"{'offered':>12}{'achieved':>12}{'goodput':>9}"
        f"{'p50us':>11}{'p99us':>11}{'p999us':>11}"
    )
    if with_chaos:
        head += f"{'goodtps':>12}{'shed':>7}{'p999x':>9}"
    lines = ["saturation curve (throughput vs offered load)", head]
    for row in rows:
        goodput = (
            row["achieved_tps"] / row["offered_tps"] if row["offered_tps"] else 0.0
        )
        line = (
            f"{row['offered_tps']:>12,.0f}{row['achieved_tps']:>12,.0f}"
            f"{goodput:>8.0%} "
            + "".join(
                f"{row[f'{percentile_label(q)}_us'] or 0.0:>11,.1f}"
                for q in PERCENTILES
            )
        )
        if with_chaos:
            c = row.get("chaos")
            if c is None:
                line += f"{'-':>12}{'-':>7}{'-':>9}"
            else:
                line += (
                    f"{c['goodput_tps']:>12,.0f}{c['shed']:>7,d}"
                    f"{c['p999_blowup']:>8.1f}x"
                )
        lines.append(line)
    return "\n".join(lines)


# -- the stored record --------------------------------------------------------


def load_record(result: LoadResult) -> dict:
    """One timestamped record of *result*, stored as a ``load`` run.

    Wall-clock timestamp and host provenance live here, and only here —
    never in the stdout report.
    """
    from repro.bench.perf import provenance
    from repro.util.clock import timestamp

    spec = result.spec
    arrival = spec.arrival
    return {
        "timestamp": timestamp(),
        "provenance": provenance(),
        "spec": {
            "system": spec.system,
            "mix": spec.mix,
            "backend": spec.backend_label(),
            "process": arrival.process,
            "clients": arrival.n_clients,
            "streams": arrival.streams(),
            "events_per_point": arrival.n_events,
            "think_ms": arrival.think_ms,
            "servers": spec.servers,
            "shards": spec.shards,
            "replicas": spec.replicas,
            "ack": spec.ack,
            "fault_rate": spec.fault_rate,
            "seed": spec.seed,
            # None when chaos/resilience is off, matching the implicit
            # None that `spec.get(...)` yields for stored runs that
            # predate the keys — so classic baselines keep matching
            # classic runs.
            "chaos": spec.chaos.to_dict() if spec.chaos is not None else None,
            "resilience": (
                spec.resilience.to_dict() if spec.resilience is not None else None
            ),
        },
        "capacity_tps": result.capacity_tps,
        "base_rate_tps": result.base_rate,
        "points": saturation_rows(result),
    }


__all__ = [
    "chaos_row",
    "load_record",
    "per_op_rows",
    "render_load_report",
    "render_saturation_curve",
    "saturation_rows",
]
