"""Command-line entry point: regenerate any table or figure.

Usage::

    python -m repro.bench fig1 [fig2 ...] [--quick] [--jobs N] [--obs]
    python -m repro.bench all --quick --jobs 4
    python -m repro.bench validate --quick    # audit every figure's shape
    python -m repro.bench chaos --quick       # fault-injection suite
    python -m repro.bench perf --quick        # simulator perf record
    python -m repro.bench load --clients 1000000 --arrival flash   # open loop
    python -m repro.bench trace fig1 --out trace.json   # Perfetto trace
    python -m repro.bench top fig1            # TMAM top-down report
    python -m repro.bench store list          # every stored run
    python -m repro.bench diff RUN_A RUN_B    # compare two stored runs
    python -m repro.bench history p999_us     # one metric's trajectory
    python -m repro.bench serve               # dashboard on :8642
    repro-bench table1

``chaos``, ``validate``, ``perf``, ``load``, ``trace``, ``top``,
``serve``, ``diff``, ``history`` and ``store`` are proper subcommands
with their own options; mixing them with figure ids is rejected with a
clear message instead of falling through to the figure registry.
The CLI only parses: ``chaos`` and ``load`` build their specs before
any work runs, and a spec's ``ValueError`` (a negative
``--remote-pct``, ``--shards 0``, an unknown system, ...) exits 2 with
usage.  The CLI itself checks only which options go together.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.figures import ALL_IDS, figure_key, run_figure, run_figures
from repro.bench.report import render_figure
from repro.util.clock import wall_timer

def _int_at_least(minimum: int):
    """An argparse ``type``: an int no smaller than *minimum*."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum} (got {value})")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" message
    return parse


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_int_at_least(0),
        default=1,
        metavar="N",
        help=(
            "fan independent cells/repetitions out over N worker processes "
            "(0 = one per core; results are bit-identical to serial)"
        ),
    )


def _resolve_jobs(jobs: int) -> int:
    if jobs == 0:
        from repro.util.fanout import default_jobs

        return default_jobs()
    return jobs


def _add_sanitize_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "arm the RNG-stream sanitizer (repro.util.sanitizer): stdout is "
            "bit-identical, violations go to stderr and fail the run"
        ),
    )


def _add_store_dir_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store-dir",
        type=Path,
        default=None,
        help="run-store root (default: benchmarks/store)",
    )


def _open_store(store_dir: Path | None):
    from repro.store import DEFAULT_STORE_DIR, RunStore

    return RunStore(store_dir or DEFAULT_STORE_DIR)


def _report_sanitizer(label: str, drained: dict[str, int] | None = None) -> int:
    """Print the armed sanitizer's verdict to stderr; non-zero on violations.

    *drained* is the run's merged ``rng_draws``: the counts its results
    carry rather than the sanitizer's global tally.
    """
    from repro.util import sanitizer

    print(f"[sanitize {label}: {sanitizer.summary(drained)}]", file=sys.stderr)
    if sanitizer.ok():
        return 0
    for violation in sanitizer.violations():
        print(f"sanitize: {violation}", file=sys.stderr)
    return 1


def _chaos_main(argv: list[str]) -> int:
    from repro.engines.registry import ALL_SYSTEMS
    from repro.faults.chaos import ChaosSpec, default_workload_factories, run_chaos_suite
    from repro.util import sanitizer
    from repro.replication import ACK_MODES
    from repro.sharding import ShardedChaosSpec, run_sharded_chaos_suite

    workloads = list(default_workload_factories())
    parser = argparse.ArgumentParser(
        prog="repro-bench chaos",
        description="Fault-injection & crash-recovery suite.",
    )
    parser.add_argument("--quick", action="store_true", help="reduced budgets")
    parser.add_argument(
        "--systems", nargs="+", default=None, help="systems to run (default: all five)"
    )
    parser.add_argument(
        "--workloads", nargs="+", default=None, choices=workloads, metavar="WORKLOADS",
        help=f"workloads to run ({', '.join(workloads)}; default: both)",
    )
    parser.add_argument("--seed", type=int, default=1, help="fault-schedule seed")
    parser.add_argument("--txns", type=int, default=None, help="transactions per run")
    parser.add_argument("--crashes", type=int, default=None, help="crashes per run")
    parser.add_argument(
        "--replicas", type=int, default=0,
        help="WAL-shipping replicas per run (0 = replication off)",
    )
    parser.add_argument(
        "--ack", default="async", choices=ACK_MODES,
        help="client acknowledgement mode when --replicas > 0",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="run the sharded 2PC chaos suite on N >= 1 shard primaries "
        "(omit for the classic single-node suite)",
    )
    parser.add_argument(
        "--remote-pct", type=float, default=20.0,
        help="multisite fraction of NewOrder/Payment when --shards is given",
    )
    parser.add_argument(
        "--seeds", type=_int_at_least(1), default=1,
        help="number of seeds to sweep, starting at --seed (sharded suite)",
    )
    _add_jobs_argument(parser)
    _add_sanitize_argument(parser)
    parser.add_argument(
        "--record",
        action="store_true",
        help=(
            "persist the suite verdicts as a chaos run in the store "
            "(opt-in: the report on stdout stays byte-identical)"
        ),
    )
    _add_store_dir_argument(parser)
    args = parser.parse_args(argv)
    # Reject options the chosen suite would silently ignore.
    if args.shards is not None and (
        args.workloads or args.quick or len(args.systems or ()) > 1
    ):
        parser.error("--shards runs TPC-C on one system: drop --workloads, "
                     "--quick and extra --systems")
    if args.shards is None and args.seeds > 1:
        parser.error("--seeds sweeps the sharded suite; it needs --shards")
    # The specs validate every value before any work starts: a bad one
    # exits 2 with usage.  Unset --txns/--crashes keep the spec defaults.
    fields = dict(seed=args.seed, replicas=args.replicas, ack=args.ack)
    for name, value in (("n_txns", args.txns), ("n_crashes", args.crashes)):
        if value is not None:
            fields[name] = value
    try:
        if args.shards is not None:
            if args.systems:
                fields["system"] = args.systems[0]
            spec = ShardedChaosSpec(
                n_shards=args.shards, remote_pct=args.remote_pct, **fields
            )
        else:
            make_spec = ChaosSpec.quick if args.quick else ChaosSpec
            specs = [make_spec(system, **fields) for system in args.systems or ALL_SYSTEMS]
    except ValueError as exc:
        parser.error(str(exc))

    # The sanitizer only watches (TrackedRandom draws bit-identically),
    # so the report on stdout matches the unsanitized run byte-for-byte.
    cells: list | None = [] if args.record else None
    with sanitizer.sanitizing(args.sanitize):
        if args.shards is not None:
            text, ok = run_sharded_chaos_suite(
                spec=spec,
                seeds=range(args.seed, args.seed + args.seeds),
                jobs=_resolve_jobs(args.jobs),
                collect=cells,
            )
        else:
            text, ok = run_chaos_suite(
                specs=specs,
                workloads=args.workloads,
                jobs=_resolve_jobs(args.jobs),
                collect=cells,
            )
        print(text)
        if args.sanitize and _report_sanitizer("chaos"):
            ok = False
    if cells is not None:
        from repro.bench.perf import provenance
        from repro.store import chaos_run
        from repro.util.clock import timestamp

        spec = {
            "quick": args.quick,
            "systems": sorted(args.systems) if args.systems else None,
            "workloads": sorted(args.workloads) if args.workloads else None,
            "seed": args.seed,
            "seeds": args.seeds,
            "txns": args.txns,
            "crashes": args.crashes,
            "replicas": args.replicas,
            "ack": args.ack,
            "shards": args.shards,
            "remote_pct": args.remote_pct,
        }
        run_id = _open_store(args.store_dir).put(
            chaos_run(
                spec, cells, ok, created=timestamp(), provenance=provenance()
            )
        )
        print(f"store: {run_id}", file=sys.stderr)
    return 0 if ok else 1


def _validate_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench validate",
        description="Audit every figure's shape against the paper's claims.",
    )
    parser.add_argument("--quick", action="store_true", help="reduced budgets")
    _add_jobs_argument(parser)
    args = parser.parse_args(argv)

    from repro.bench.validate import render_checks, validate_all
    from repro.util.fanout import using_jobs

    with using_jobs(_resolve_jobs(args.jobs)):
        checks = validate_all(quick=args.quick)
    print(render_checks(checks))
    return 0 if all(c.passed for c in checks) else 1


def _perf_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench perf",
        description=(
            "Measure simulator throughput (events/sec, txns/sec, figure "
            "wall-clock) and record a bench run in the run store."
        ),
    )
    parser.add_argument("--quick", action="store_true", help="shorter timing runs")
    _add_jobs_argument(parser)
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit non-zero on a >30%% events/sec regression vs the best prior "
            "stored run from a comparable host with the same --quick flag"
        ),
    )
    parser.add_argument(
        "--no-save", action="store_true", help="measure and report without recording"
    )
    _add_store_dir_argument(parser)
    args = parser.parse_args(argv)

    from repro.bench.perf import run_perf

    text, ok = run_perf(
        quick=args.quick,
        jobs=_resolve_jobs(args.jobs),
        check=args.check,
        save=not args.no_save,
        store_dir=args.store_dir,
    )
    print(text)
    return 0 if ok else 1


def _load_main(argv: list[str]) -> int:
    from repro.util import sanitizer
    from repro.load import ARRIVAL_PROCESSES, MIXES, ArrivalSpec, LoadSpec, run_load
    from repro.load.arrivals import DEFAULT_STREAMS
    from repro.load.driver import DEFAULT_MULTIPLIERS
    from repro.load.report import load_record, render_load_report
    from repro.load.resilience import ResilienceSpec, chaos_suite
    from repro.replication import ACK_MODES

    parser = argparse.ArgumentParser(
        prog="repro-bench load",
        description=(
            "Open-loop load driver: N simulated clients (seeded arrival "
            "streams, not threads) offer transactions at a rate the system "
            "does not control; reports p50/p99/p999 latency and the "
            "throughput-vs-offered-load saturation curve."
        ),
    )
    parser.add_argument(
        "--clients", type=int, default=1000,
        metavar="N", help="simulated clients (arrival streams scale O(1) in N)",
    )
    parser.add_argument(
        "--arrival", default="poisson", choices=ARRIVAL_PROCESSES,
        help="arrival process shaping the offered rate over virtual time",
    )
    parser.add_argument(
        "--mix", default="read-write", choices=list(MIXES),
        help="transaction mix the clients submit",
    )
    parser.add_argument(
        "--rate", type=float, default=None, metavar="R",
        help="base offered rate in txns/s of virtual time "
        "(default: probe the backend's capacity)",
    )
    parser.add_argument(
        "--system", default="hyper", help="engine under load (default: hyper)"
    )
    parser.add_argument(
        "--events", type=int, default=600, metavar="N",
        help="timeline events per sweep point",
    )
    parser.add_argument(
        "--streams", type=int, default=DEFAULT_STREAMS, metavar="N",
        help="arrival streams (client cohorts); default 32",
    )
    parser.add_argument(
        "--think-ms", type=float, default=0.0,
        help="mean per-client think time (exponential), milliseconds",
    )
    parser.add_argument(
        "--servers", type=int, default=1,
        help="virtual service slots draining the queue",
    )
    parser.add_argument(
        "--shards", type=int, default=0,
        help="drive a ShardedCluster of N primaries (its own TPC-C "
        "distributed mix; 0 = no sharding)",
    )
    parser.add_argument(
        "--replicas", type=int, default=0,
        help="WAL-shipping replicas (per shard when --shards > 0)",
    )
    parser.add_argument(
        "--ack", default="quorum", choices=ACK_MODES,
        help="client acknowledgement mode when --replicas > 0",
    )
    parser.add_argument(
        "--remote-pct", type=float, default=10.0,
        help="cross-shard fraction when --shards > 0",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.0,
        help="per-transaction probability of an injected abort",
    )
    parser.add_argument(
        "--multipliers", type=float, nargs="+", default=DEFAULT_MULTIPLIERS,
        metavar="M", help="offered-load multipliers (default: 0.25 0.5 1 2 4)",
    )
    parser.add_argument("--seed", type=int, default=42, help="arrival-stream seed")
    chaos_group = parser.add_argument_group(
        "chaos under load",
        "seeded fault windows merged into the sweep timeline, plus the "
        "client-side resilience policy layer (repro.load.resilience)",
    )
    chaos_group.add_argument(
        "--chaos", default=None, metavar="SUITE",
        help="fault suite to fire during the sweep (crash, partition, "
        "coordinator-crash, prepare-stall, brownout, slow-shard, mixed)",
    )
    chaos_group.add_argument(
        "--chaos-windows", type=int, default=1, metavar="N",
        help="fault windows per kind across each point's horizon",
    )
    chaos_group.add_argument(
        "--timeout-ms", type=float, default=0.0, metavar="T",
        help="per-request client timeout in virtual ms (0 = none)",
    )
    chaos_group.add_argument(
        "--retry", type=int, default=0, metavar="N",
        help="client retries per request (capped-exponential + seeded "
        "jitter backoff; 0 = fail fast)",
    )
    chaos_group.add_argument(
        "--shed", type=int, default=0, metavar="DEPTH",
        help="admission control: reject arrivals when the queue is this "
        "deep (0 = never shed)",
    )
    chaos_group.add_argument(
        "--breaker", type=int, default=0, metavar="N",
        help="circuit breaker: open after N consecutive failures "
        "(0 = no breaker)",
    )
    _add_jobs_argument(parser)
    _add_sanitize_argument(parser)
    parser.add_argument(
        "--no-save", action="store_true", help="report without recording"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit non-zero on a >30%% p999 regression vs the most recent "
            "committed baseline with an identical spec (the latency-SLO "
            "CI gate; passes when no comparable baseline exists)"
        ),
    )
    _add_store_dir_argument(parser)
    args = parser.parse_args(argv)
    # The specs validate every value before any work starts: a bad one
    # exits 2 with usage.
    try:
        spec = LoadSpec(
            system=args.system,
            mix=args.mix,
            arrival=ArrivalSpec(
                process=args.arrival,
                n_clients=args.clients,
                n_events=args.events,
                n_streams=args.streams,
                think_ms=args.think_ms,
            ),
            rate=args.rate,
            servers=args.servers,
            shards=args.shards,
            replicas=args.replicas,
            ack=args.ack,
            remote_pct=args.remote_pct,
            fault_rate=args.fault_rate,
            seed=args.seed,
            multipliers=tuple(args.multipliers),
            chaos=(
                chaos_suite(args.chaos, windows_per_kind=args.chaos_windows)
                if args.chaos is not None else None
            ),
            resilience=(
                ResilienceSpec(
                    timeout_ms=args.timeout_ms,
                    max_retries=args.retry,
                    shed_depth=args.shed,
                    breaker_threshold=args.breaker,
                )
                if any((args.timeout_ms, args.retry, args.shed, args.breaker))
                else None
            ),
        )
    except ValueError as exc:
        parser.error(str(exc))
    # Stdout is a pure function of the seed (no wall clock, no host
    # facts) so serial vs --jobs N and sanitized vs plain runs byte-diff
    # clean; timestamps/provenance live only in the stored run.
    with sanitizer.sanitizing(args.sanitize):
        result = run_load(spec, jobs=_resolve_jobs(args.jobs))
        print(render_load_report(result))
        status = 0
        if args.sanitize and _report_sanitizer("load", result.rng_draws):
            status = 1
    from repro.store import load_run

    store = _open_store(args.store_dir)
    fresh = load_run(load_record(result))
    if args.check:
        from repro.store import LOAD, check_load_regression, find_load_baseline

        candidates = [store.get(meta["run_id"]) for meta in store.list_runs(LOAD)]
        if find_load_baseline(fresh, candidates) is None:
            # A gate that silently passes because nothing matched is a
            # gate that never fires: make the missing baseline loud and
            # distinguishable (exit 2) from a real regression (exit 1).
            # This run is still recorded below, so it becomes the
            # baseline the next invocation gates against.
            print(
                "load check: no matching baseline — no stored run "
                "shares this spec (system/mix/backend/chaos/resilience/"
                "seed/rate/multipliers); this run is recorded as the baseline unless "
                "--no-save was given",
                file=sys.stderr,
            )
            status = 2
        else:
            check_text, check_ok = check_load_regression(fresh, candidates)
            print(check_text)
            if not check_ok:
                status = 1
    if not args.no_save:
        print(f"store: {store.put(fresh)}")
    return status


def _collect_obs_buffers(panels) -> list:
    """Per-repetition event buffers from figure panels, in seed order.

    One buffer per (panel, cell, repetition) — buffers keep their own
    clocks, so the exporter gives each its own pid and timestamp
    monotonicity holds per lane.
    """
    buffers = []
    for panel in panels:
        for (system, x), result in panel.cells.items():
            for rep, events in enumerate(result.obs_buffers):
                label = f"{panel.figure_id} {system} {panel.x_label}={x} rep{rep}"
                buffers.append((label, events))
    return buffers


def _known_ids(requested: list[str]) -> tuple[list[str], int]:
    """The known figure ids of *requested* (``all`` = every id), and the
    exit status: 2 when an unknown id was reported to stderr."""
    status = 0
    ids = []
    for figure_id in ALL_IDS if "all" in requested else requested:
        try:
            figure_key(figure_id)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            status = 2
        else:
            ids.append(figure_id)
    return ids, status


def _trace_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench trace",
        description=(
            "Run a figure with span tracing enabled and export a Chrome "
            "trace-event JSON (open in https://ui.perfetto.dev or "
            "chrome://tracing)."
        ),
    )
    parser.add_argument("figure", help=f"figure id ({', '.join(ALL_IDS)})")
    parser.add_argument("--quick", action="store_true", help="reduced budgets")
    _add_jobs_argument(parser)
    parser.add_argument(
        "--out", type=Path, default=Path("trace.json"),
        help="Chrome trace-event output path (default: trace.json)",
    )
    parser.add_argument(
        "--jsonl", type=Path, default=None, help="also write a flat JSONL event log"
    )
    parser.add_argument(
        "--prom", type=Path, default=None,
        help="also write a Prometheus textfile snapshot of the metrics registry",
    )
    args = parser.parse_args(argv)

    from repro import obs
    from repro.obs.exporters import (
        validate_chrome_trace,
        write_chrome_trace,
        write_jsonl,
        write_prometheus,
    )
    from repro.util.fanout import using_jobs

    with obs.using_obs(True):
        with using_jobs(_resolve_jobs(args.jobs)):
            try:
                output = run_figure(args.figure, quick=args.quick)
            except KeyError as exc:
                print(exc.args[0], file=sys.stderr)
                return 2
        stray = obs.drain_events()
    panels = output if isinstance(output, list) else []
    buffers = _collect_obs_buffers(panels)
    if stray:
        buffers.append(("harness", stray))
    if not buffers:
        print(f"{args.figure} produced no span events (nothing to trace)", file=sys.stderr)
        return 1

    doc = write_chrome_trace(args.out, buffers)
    n_events = sum(len(events) for _, events in buffers)
    cats = sorted({e.cat for _, events in buffers for e in events})
    problems = validate_chrome_trace(doc)
    print(
        f"wrote {args.out}: {n_events} events, {len(buffers)} buffer(s), "
        f"layers: {', '.join(cats)}"
    )
    if args.jsonl is not None:
        print(f"wrote {args.jsonl}: {write_jsonl(args.jsonl, buffers)} lines")
    if args.prom is not None:
        snaps = [
            r.obs_metrics
            for panel in panels
            for r in panel.cells.values()
            if r.obs_metrics
        ]
        write_prometheus(args.prom, obs.merge_snapshots(*snaps))
        print(f"wrote {args.prom}")
    if problems:
        for problem in problems:
            print(f"trace validation: {problem}", file=sys.stderr)
        return 1
    return 0


def _top_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench top",
        description=(
            "Regenerate figures and render the TMAM-style top-down cycle "
            "attribution alongside the paper's stall breakdown."
        ),
    )
    parser.add_argument("figures", nargs="+", help=f"figure ids ({', '.join(ALL_IDS)})")
    parser.add_argument("--quick", action="store_true", help="reduced budgets")
    _add_jobs_argument(parser)
    args = parser.parse_args(argv)

    from repro.bench.report import render_topdown

    ids, status = _known_ids(args.figures)
    outputs = run_figures(ids, quick=args.quick, jobs=_resolve_jobs(args.jobs))
    for figure_id, output in zip(ids, outputs):
        if isinstance(output, str):
            print(f"{figure_id} has no per-cell counters to attribute", file=sys.stderr)
            continue
        for panel in output:
            print(render_figure(panel))
            print()
            print(render_topdown(panel))
            print()
    return status


def _serve_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench serve",
        description=(
            "Serve the run-store dashboard + JSON API (stdlib http.server): "
            "/runs, /runs/<id>, /diff/<a>/<b>, /history/<metric>."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8642, help="port (default 8642)")
    parser.add_argument(
        "--verbose", action="store_true", help="log requests to stderr"
    )
    _add_store_dir_argument(parser)
    args = parser.parse_args(argv)
    if not 0 <= args.port <= 65535:
        parser.error(f"--port must be in [0, 65535] (got {args.port})")

    from repro.store.server import serve

    store = _open_store(args.store_dir)
    print(
        f"serving {store.root} on http://{args.host}:{args.port}/ (Ctrl-C stops)",
        file=sys.stderr,
    )
    serve(store, args.host, args.port, verbose=args.verbose)
    return 0


def _diff_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench diff",
        description=(
            "Compare two stored runs of the same kind: perf deltas, "
            "latency-percentile regressions, figure drift and chaos-verdict "
            "changes, each against its explicit threshold.  Exit 1 when any "
            "threshold trips."
        ),
    )
    parser.add_argument("run_a", help="baseline run id (repro-bench store list)")
    parser.add_argument("run_b", help="candidate run id")
    _add_store_dir_argument(parser)
    args = parser.parse_args(argv)

    from repro.store import diff_runs, render_diff

    store = _open_store(args.store_dir)
    try:
        diff = diff_runs(store.get(args.run_a), store.get(args.run_b))
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(render_diff(diff))
    return 0 if diff.ok else 1


def _history_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench history",
        description=(
            "One metric's trajectory across every stored run: named metrics "
            "(events_per_sec, txns_per_sec, capacity_tps, p50_us, p99_us, "
            "p999_us, chaos_ok) or a dotted payload path."
        ),
    )
    parser.add_argument("metric", help="named metric or dotted payload path")
    parser.add_argument(
        "--kind", default=None, choices=("bench", "load", "chaos", "figure"),
        help="only consider runs of this kind",
    )
    _add_store_dir_argument(parser)
    args = parser.parse_args(argv)

    from repro.store import metric_history, render_history

    history = metric_history(_open_store(args.store_dir), args.metric, kind=args.kind)
    print(render_history(args.metric, history))
    return 0


def _store_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench store",
        description="Run-store maintenance: list runs.",
    )
    parser.add_argument(
        "action", choices=("list",),
        help="list: every stored run, oldest first",
    )
    _add_store_dir_argument(parser)
    args = parser.parse_args(argv)

    for meta in _open_store(args.store_dir).list_runs():
        summary = meta.get("summary") or {}
        parts = "  ".join(
            f"{key}={value}" for key, value in summary.items()
            if value not in (None, [], "")
        )
        print(
            f"{meta.get('run_id', '?'):<24} {meta.get('kind', '?'):<7} "
            f"{meta.get('fingerprint', '')[:8]:<9} {parts}"
        )
    return 0


def _figures_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Regenerate tables/figures of 'Micro-architectural Analysis of "
            "In-memory OLTP' (SIGMOD 2016) on the simulated server."
        ),
        epilog="Subcommands: " + ", ".join(SUBCOMMANDS) + " (run e.g. 'repro-bench perf --help').",
    )
    parser.add_argument(
        "figures",
        nargs="+",
        help=f"figure ids ({', '.join(ALL_IDS)}) or 'all'",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced budgets and a single repetition (tests / smoke runs)",
    )
    _add_jobs_argument(parser)
    parser.add_argument(
        "--obs",
        action="store_true",
        help=(
            "run with span tracing enabled (figure output is bit-identical; "
            "a span-count note goes to stderr)"
        ),
    )
    _add_sanitize_argument(parser)
    parser.add_argument(
        "--record",
        action="store_true",
        help=(
            "persist the regenerated panels as a figure run in the store "
            "(opt-in: stdout stays byte-identical)"
        ),
    )
    _add_store_dir_argument(parser)
    args = parser.parse_args(argv)

    mixed = sorted(set(args.figures) & set(SUBCOMMANDS))
    if mixed:
        print(
            f"'{mixed[0]}' is a subcommand, not a figure id; run it on its own: "
            f"'repro-bench {mixed[0]} [options]'",
            file=sys.stderr,
        )
        return 2

    from contextlib import nullcontext

    from repro import obs
    from repro.util import sanitizer

    ids, status = _known_ids(args.figures)
    panels: list = []
    # Like --obs, --sanitize must not change stdout: TrackedRandom draws
    # bit-identically and the verdict goes to stderr.
    with sanitizer.sanitizing(args.sanitize):
        started = wall_timer()
        # Figure output is bit-identical with or without --obs; the span
        # tally goes to stderr so stdout stays comparable.
        with obs.using_obs(True) if args.obs else nullcontext():
            outputs = run_figures(ids, quick=args.quick, jobs=_resolve_jobs(args.jobs))
        for figure_id, output in zip(ids, outputs):
            if isinstance(output, str):
                print(output)
            else:
                panels.extend(output)
                for panel in output:
                    print(render_figure(panel))
                    print()
                if args.obs:
                    n_spans = sum(
                        len(events)
                        for panel in output
                        for r in panel.cells.values()
                        for events in r.obs_buffers
                    )
                    print(f"[{figure_id}: {n_spans} span events recorded]", file=sys.stderr)
            print()
        # The timing goes to stderr: stdout is a pure function of the
        # seed, like every other subcommand's.
        elapsed = wall_timer() - started
        print(f"[{len(ids)} figure(s) regenerated in {elapsed:.1f}s]", file=sys.stderr)
        if args.sanitize:
            # Figures that view one experiment share its results: count
            # each simulated cell's draws once.
            drained: dict[str, int] = {}
            for r in {id(r): r for panel in panels for r in panel.cells.values()}.values():
                sanitizer.merge_draws(drained, r.rng_draws)
            if _report_sanitizer("figures", drained) and status == 0:
                status = 1
    if args.record and panels:
        from repro.bench.perf import provenance
        from repro.store import figure_run
        from repro.util.clock import timestamp

        run_id = _open_store(args.store_dir).put(
            figure_run(
                panels,
                quick=args.quick,
                created=timestamp(),
                provenance=provenance(),
            )
        )
        print(f"store: {run_id}", file=sys.stderr)
    return status


SUBCOMMANDS = {
    "chaos": _chaos_main,
    "validate": _validate_main,
    "perf": _perf_main,
    "load": _load_main,
    "trace": _trace_main,
    "top": _top_main,
    "serve": _serve_main,
    "diff": _diff_main,
    "history": _history_main,
    "store": _store_main,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    first_positional = next((a for a in argv if not a.startswith("-")), None)
    if first_positional in SUBCOMMANDS:
        rest = list(argv)
        rest.remove(first_positional)
        return SUBCOMMANDS[first_positional](rest)
    return _figures_main(argv)


def console_main() -> int:  # pragma: no cover - thin wrapper
    """Entry point that tolerates closed pipes (``repro-bench ... | head``)."""
    try:
        return main()
    except BrokenPipeError:
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(console_main())
