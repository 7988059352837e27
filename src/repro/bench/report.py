"""Text rendering of regenerated figures.

The harness prints the same rows/series the paper's figures plot:
IPC tables, six-component stall breakdowns (side by side, the paper's
convention), and the Figure 7 engine-time percentages.
"""

from __future__ import annotations

from repro.bench.results import FigureResult, IPC, PERCENT_ENGINE, STALLS_PER_KI
from repro.core.cpu import CycleModel
from repro.core.metrics import COMPONENT_LABELS, STALL_COMPONENTS
from repro.core.spec import ServerSpec, table1_rows


def _rule(width: int) -> str:
    return "-" * width


def render_table1(spec: ServerSpec) -> str:
    rows = table1_rows(spec)
    key_width = max(len(k) for k, _ in rows)
    lines = ["Table 1: Server Parameters", _rule(60)]
    lines += [f"{k:<{key_width}}  {v}" for k, v in rows]
    return "\n".join(lines)


def render_figure(figure: FigureResult) -> str:
    """Render a figure as aligned text tables."""
    if figure.metric in (IPC, PERCENT_ENGINE):
        body = _render_scalar(figure)
    else:
        body = _render_stalls(figure)
    header = f"{figure.figure_id}: {figure.title}"
    parts = [header, _rule(len(header)), body]
    if figure.notes:
        parts.append("")
        parts.extend(f"note: {n}" for n in figure.notes)
    return "\n".join(parts)


def _render_scalar(figure: FigureResult) -> str:
    unit = "IPC" if figure.metric == IPC else "% in engine"
    sys_width = max(len(s) for s in figure.systems + ["system"])
    col_width = max(7, max(len(x) for x in figure.x_values) + 1)
    head = f"{'system':<{sys_width}}" + "".join(f"{x:>{col_width}}" for x in figure.x_values)
    lines = [f"metric: {unit} (x: {figure.x_label})", head]
    for system in figure.systems:
        cells = "".join(f"{figure.value(system, x):>{col_width}.2f}" for x in figure.x_values)
        lines.append(f"{system:<{sys_width}}{cells}")
    return "\n".join(lines)


def _render_stalls(figure: FigureResult) -> str:
    per = "1000 instructions" if figure.metric == STALLS_PER_KI else "transaction"
    sys_width = max(len(s) for s in figure.systems + ["system"]) + 1
    x_width = max(len(x) for x in figure.x_values + [figure.x_label]) + 1
    comp_width = 9
    head = (
        f"{'system':<{sys_width}}{figure.x_label:<{x_width}}"
        + "".join(f"{COMPONENT_LABELS[c]:>{comp_width}}" for c in STALL_COMPONENTS)
        + f"{'total':>{comp_width}}"
    )
    lines = [f"metric: stall cycles per {per} (components side by side)", head]
    for system in figure.systems:
        for x in figure.x_values:
            b = figure.breakdown(system, x)
            cells = "".join(f"{getattr(b, c):>{comp_width}.0f}" for c in STALL_COMPONENTS)
            lines.append(f"{system:<{sys_width}}{x:<{x_width}}{cells}{b.total:>{comp_width}.0f}")
    return "\n".join(lines)


def render_topdown(figure: FigureResult) -> str:
    """TMAM-style top-down attribution for every cell of a figure.

    Rendered alongside the paper's six-way stall split (``repro-bench
    top <fig>``): the four level-1 slots sum to 100% of elapsed cycles,
    with backend-bound split into memory/core at level 2.
    """
    from repro.obs.topdown import topdown

    sys_width = max(len(s) for s in figure.systems + ["system"]) + 1
    x_width = max(len(x) for x in figure.x_values + [figure.x_label]) + 1
    col = 10
    head = (
        f"{'system':<{sys_width}}{figure.x_label:<{x_width}}"
        + "".join(
            f"{label:>{col}}"
            for label in ("retiring", "bad-spec", "frontend", "backend", "(mem", "core)")
        )
    )
    lines = [
        "top-down attribution (% of elapsed cycles; TMAM level 1, backend split)",
        head,
    ]
    for system in figure.systems:
        for x in figure.x_values:
            r = figure.result(system, x)
            td = topdown(r.counters, CycleModel(r.server))
            cells = "".join(
                f"{100.0 * v:>{col}.1f}"
                for v in (
                    td.retiring, td.bad_speculation, td.frontend_bound,
                    td.backend_bound, td.memory_bound, td.core_bound,
                )
            )
            lines.append(f"{system:<{sys_width}}{x:<{x_width}}{cells}")
    return "\n".join(lines)


def render_summary_line(figure: FigureResult) -> str:
    """One-line digest (used by the benchmark harness logs)."""
    spans = []
    for system in figure.systems:
        values = figure.series(system)
        spans.append(f"{system}={min(values):.2f}..{max(values):.2f}")
    return f"{figure.figure_id} [{figure.metric}] " + "  ".join(spans)


# -- latency percentiles ------------------------------------------------------

PERCENTILES = (50.0, 99.0, 99.9)
"""The percentiles every latency report states: median, tail, far tail."""


def percentile_label(q: float) -> str:
    """p50 / p99 / p999-style label for a percentile value."""
    text = f"{q:g}".replace(".", "")
    return f"p{text}"


def render_latency_percentiles(
    samples, *, unit_ns: int = 1000, unit: str = "us",
    percentiles: tuple[float, ...] = PERCENTILES,
) -> str:
    """One aligned line of nearest-rank percentiles for *samples* (ns).

    Selection goes through :func:`repro.obs.nearest_rank` — an actual
    sample, no interpolation — so the same multiset of samples renders
    the same line no matter how it was merged (serial vs ``--jobs N``).
    """
    from repro.obs import nearest_rank

    if not samples:
        return "  ".join(f"{percentile_label(q)}=-" for q in percentiles)
    parts = []
    for q in percentiles:
        value = nearest_rank(samples, q) / unit_ns
        parts.append(f"{percentile_label(q)}={value:,.1f}{unit}")
    return "  ".join(parts)


# -- engine statistics and chaos runs ----------------------------------------


def render_engine_stats(stats) -> str:
    """Per-procedure commit/abort/retry/backoff table for an
    :class:`repro.engines.base.EngineStats`."""
    procedures = sorted(
        set(stats.commits_by_procedure)
        | set(stats.aborts_by_procedure)
        | set(stats.retries_by_procedure)
    )
    name_width = max([len(p) for p in procedures] + [len("procedure")])
    head = (
        f"{'procedure':<{name_width}}{'commits':>9}{'aborts':>8}"
        f"{'retries':>9}{'backoff-cyc':>13}"
    )
    lines = [head, _rule(len(head))]
    for procedure in procedures:
        lines.append(
            f"{procedure:<{name_width}}"
            f"{stats.commits_by_procedure.get(procedure, 0):>9}"
            f"{stats.aborts_by_procedure.get(procedure, 0):>8}"
            f"{stats.retries_by_procedure.get(procedure, 0):>9}"
            f"{stats.backoff_by_procedure.get(procedure, 0.0):>13.0f}"
        )
    lines.append(
        f"{'total':<{name_width}}{stats.commits:>9}{stats.aborts:>8}"
        f"{sum(stats.retries_by_procedure.values()):>9}{stats.backoff_cycles:>13.0f}"
    )
    if stats.aborts_by_reason:
        reasons = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(stats.aborts_by_reason.items())
        )
        lines.append(f"abort reasons: {reasons}")
    return "\n".join(lines)


def render_chaos_result(result) -> str:
    """Human-readable report for one :class:`repro.faults.ChaosResult`."""
    repl = f" [replicas={result.replicas} ack={result.ack}]" if result.replicas else ""
    header = (
        f"chaos {result.system} x {result.workload}{repl}: "
        f"{'PASS' if result.ok else 'FAIL'}"
    )
    lines = [header, _rule(len(header))]
    stats = result.stats
    lines.append(
        f"attempted {result.attempted}  committed {stats.commits}  "
        f"aborted {stats.aborts}  crashes {len(result.crashes)}"
    )
    for crash in result.crashes:
        tail = " torn" if crash.torn_tail else ""
        ckpt = (
            f" from ckpt lsn {crash.checkpoint_lsn}"
            if crash.checkpoint_lsn is not None
            else ""
        )
        lines.append(
            f"  crash @ {crash.point} (hit {crash.hit}, txn {crash.txn_index}): "
            f"lost {crash.lost_records}{tail}, truncated {crash.truncated_records}, "
            f"redo {crash.redo_applied}, undo {crash.undo_applied}{ckpt}"
        )
        if crash.winner_id is not None:
            lines.append(
                f"    failover -> replica{crash.winner_id} "
                f"(durable lsn {crash.winner_lsn}, epoch {crash.epoch})"
            )
        for problem in crash.problems:
            lines.append(f"    VIOLATION: {problem}")
    for problem in result.final_problems:
        lines.append(f"  FINAL VIOLATION: {problem}")
    if result.replicas:
        lines.append(
            f"  acks: {result.acked} acked, {result.unacked} unacked; "
            f"replica digests {list(result.replica_digests)}"
        )
        if result.net_faults:
            fired = "  ".join(
                f"{kind}={count}" for kind, count in sorted(result.net_faults.items())
            )
            lines.append(f"  net faults fired: {fired}")
        if result.net_counters:
            moved = "  ".join(
                f"{key}={value}"
                for key, value in sorted(result.net_counters.items())
                if value
            )
            lines.append(f"  net traffic: {moved}")
    if not result.ok:
        lines.append(
            "  failing invariants: " + ", ".join(result.failed_invariants())
        )
    lines.append(f"  digest {result.digest()}")
    lines.append(render_engine_stats(stats))
    return "\n".join(lines)


def render_sharded_chaos_result(result) -> str:
    """Report for one :class:`repro.sharding.ShardedChaosResult`."""
    repl = f" replicas={result.replicas} ack={result.ack}" if result.replicas else ""
    header = (
        f"sharded chaos {result.system} x tpcc "
        f"[shards={result.n_shards} remote={result.remote_pct:g}%{repl} "
        f"seed={result.seed}]: {'PASS' if result.ok else 'FAIL'}"
    )
    c = result.counters
    lines = [header, _rule(len(header))]
    lines.append(
        f"attempted {result.attempted}  committed {result.committed}  "
        f"local {c['local']}  cross-shard {c['cross']} "
        f"(global: {c['committed_global']} committed, "
        f"{c['aborted_global']} aborted, {c['acked_global']} acked, "
        f"{c['unacked_global']} unacked)"
    )
    lines.append(
        f"  crashes {len(result.crashes)}  recoveries {c['recoveries']}  "
        f"in-doubt resolved {c['in_doubt_resolved']}  "
        f"re-prepares {c['reprepares']}  prepare stalls {c['prepare_stalls']}"
    )
    for point, hit, shard in result.crashes:
        lines.append(f"  crash @ {point} (hit {hit}) on shard {shard}")
    if result.fired:
        fired = "  ".join(
            f"{kind}={count}" for kind, count in sorted(result.fired.items())
        )
        lines.append(f"  faults fired: {fired}")
    moved = "  ".join(
        f"{key}={value}"
        for key, value in sorted(result.net_counters.items())
        if value
    )
    if moved:
        lines.append(f"  2pc fabric: {moved}")
    for problem in result.problems:
        lines.append(f"  VIOLATION: {problem}")
    if not result.ok:
        lines.append(
            "  failing invariants: " + ", ".join(result.failed_invariants())
        )
    lines.append(f"  digest {result.digest()}")
    return "\n".join(lines)
