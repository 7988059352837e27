"""Performance tracking: ``repro-bench perf``.

Measures the simulator's own speed — the numbers the bench suite
guards — and records them as a ``bench`` run in :mod:`repro.store` so
the repository accumulates a performance trajectory that future PRs can
be judged against:

* **events/sec** through ``Machine.run_trace`` (the replay hot loop,
  same trace shape as ``test_trace_replay_throughput``);
* **txns/sec** end-to-end through the leanest engine (HyPer executing
  single-row reads, same as ``test_engine_transaction_throughput``);
* **wall-clock** for a quick figure sweep, honouring ``--jobs`` so the
  parallel runner's turnaround is part of the record.

Runs live in the run store (``benchmarks/store/bench-<date>-<seq>/``).
``--check`` compares the fresh events/sec against the best prior
``bench`` run taken with the same ``quick`` flag on a comparable host
(same Python, implementation, CPU count and platform) and fails on a
>30 % regression — the CI gate for the replay fast path.  With no
comparable run it says so and skips the comparison.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

from repro.store import BENCH, DEFAULT_STORE_DIR, RunRecord, RunStore, bench_run
from repro.store.compare import PERF_REGRESSION_TOLERANCE
from repro.util.clock import perf_timer, timestamp
from repro.util.rng import root_rng

QUICK_SWEEP_FIGURES = ["fig13"]
FULL_SWEEP_FIGURES = ["fig1", "fig9", "fig13"]


def bench_replay_events_per_sec(*, min_seconds: float = 0.5) -> dict:
    """Events/second through Machine.run_trace (the replay hot loop).

    The trace repeats, so after warm-up the core's L1I transition memo
    serves every instruction line: this times the memo-served path, and
    its events/s are not comparable with ``bench`` records taken before
    the memo existed.
    """
    from repro.core.machine import Machine
    from repro.core.trace import AccessTrace

    machine = Machine()
    rng = root_rng(0, "perf-replay")
    trace = AccessTrace()
    trace.ifetch_run(4096, 3000, module=0)
    for _ in range(500):
        trace.load(10**8 + rng.randrange(10**6), 0, serial=True)
    trace.retire(0, 48_000, base_cycles=20_000)
    events = len(trace)

    # Warm the caches to steady state before timing.
    for _ in range(5):
        machine.run_trace(trace)
    rounds = 0
    best = float("inf")
    started = perf_timer()
    while perf_timer() - started < min_seconds:
        t0 = perf_timer()
        machine.run_trace(trace)
        elapsed = perf_timer() - t0
        best = min(best, elapsed)
        rounds += 1
    return {
        "events_per_round": events,
        "rounds": rounds,
        "best_round_s": best,
        "events_per_sec": events / best if best > 0 else 0.0,
    }


def bench_engine_txns_per_sec(*, n_txns: int = 3000) -> dict:
    """End-to-end transactions/second for the leanest engine (HyPer)."""
    from repro.engines.common import TableSpec
    from repro.engines.registry import make_engine
    from repro.storage.record import microbench_schema

    engine = make_engine("hyper")
    engine.create_table(TableSpec("t", microbench_schema(), 10**9))
    rng = root_rng(2, "perf-engine")
    for _ in range(50):
        engine.execute("p", lambda txn: txn.read("t", rng.randrange(10**9)))
    started = perf_timer()
    for _ in range(n_txns):
        key = rng.randrange(10**9)
        engine.execute("p", lambda txn: txn.read("t", key))
    elapsed = perf_timer() - started
    return {
        "txns": n_txns,
        "wall_s": elapsed,
        "txns_per_sec": n_txns / elapsed if elapsed > 0 else 0.0,
    }


def bench_figure_sweep(figures: list[str], *, jobs: int | None = None) -> dict:
    """Wall-clock for regenerating *figures* with --quick budgets."""
    from repro.bench.figures import run_figures

    started = perf_timer()
    run_figures(figures, quick=True, jobs=jobs)
    elapsed = perf_timer() - started
    return {"figures": figures, "jobs": jobs or 1, "wall_s": elapsed}


def _git_sha() -> str | None:
    """The repository HEAD, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def provenance() -> dict:
    """Who/where/what produced a record, so bench trajectories are
    attributable (same-machine comparisons only, commit lookup)."""
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def collect_record(*, quick: bool = False, jobs: int | None = None) -> dict:
    """Run every perf bench and assemble one timestamped record."""
    replay = bench_replay_events_per_sec(min_seconds=0.25 if quick else 0.5)
    engine = bench_engine_txns_per_sec(n_txns=1000 if quick else 3000)
    sweep = bench_figure_sweep(
        QUICK_SWEEP_FIGURES if quick else FULL_SWEEP_FIGURES, jobs=jobs
    )
    return {
        "timestamp": timestamp(),
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "provenance": provenance(),
        "replay": replay,
        "engine": engine,
        "figure_sweep": sweep,
    }


COMPARABLE_PROVENANCE = ("python", "implementation", "cpu_count", "platform")
"""Provenance fields a prior run must share with a run to be its
baseline.  ``git_sha`` is deliberately absent: comparing commits is the
point of the gate."""


def comparable(run: RunRecord, *, quick: bool, host: dict) -> bool:
    """True if the stored *run* was taken with the same ``quick`` flag on
    a host whose :data:`COMPARABLE_PROVENANCE` fields all equal *host*'s."""
    if run.spec.get("quick") != quick:
        return False
    return all(run.provenance.get(key) == host.get(key) for key in COMPARABLE_PROVENANCE)


def baseline_events_per_sec(
    runs: list[RunRecord], *, quick: bool, host: dict
) -> float | None:
    """The best replay throughput among stored runs comparable to this
    one (the CI baseline), or None when no run is comparable."""
    values = [
        run.payload.get("replay", {}).get("events_per_sec")
        for run in runs
        if comparable(run, quick=quick, host=host)
    ]
    values = [v for v in values if isinstance(v, (int, float)) and v > 0]
    return max(values) if values else None


def render_record(record: dict, *, baseline: float | None = None) -> str:
    lines = [
        "perf record",
        f"  replay     : {record['replay']['events_per_sec']:,.0f} events/sec "
        f"({record['replay']['events_per_round']} events/round, "
        f"{record['replay']['rounds']} rounds)",
        f"  engine     : {record['engine']['txns_per_sec']:,.0f} txns/sec "
        f"({record['engine']['txns']} txns)",
        f"  fig sweep  : {record['figure_sweep']['wall_s']:.1f}s "
        f"({', '.join(record['figure_sweep']['figures'])}, "
        f"jobs={record['figure_sweep']['jobs']}, --quick)",
    ]
    if baseline is not None:
        current = record["replay"]["events_per_sec"]
        delta = (current - baseline) / baseline
        lines.append(
            f"  vs baseline: {delta:+.1%} events/sec (best comparable prior {baseline:,.0f})"
        )
    return "\n".join(lines)


def run_perf(
    *,
    quick: bool = False,
    jobs: int | None = None,
    check: bool = False,
    save: bool = True,
    store_dir: Path | None = None,
) -> tuple[str, bool]:
    """Run the perf suite; returns (report text, ok).

    *ok* is False only when *check* is set and the fresh events/sec
    regressed more than :data:`PERF_REGRESSION_TOLERANCE` below the best
    comparable prior ``bench`` run in the store (see :func:`comparable`).
    When *save* is set the record is written to the store as a new
    ``bench`` run.
    """
    store = RunStore(store_dir or DEFAULT_STORE_DIR)
    prior = [store.get(meta["run_id"]) for meta in store.list_runs(BENCH)]
    record = collect_record(quick=quick, jobs=jobs)
    baseline = baseline_events_per_sec(prior, quick=quick, host=record["provenance"])
    lines = [render_record(record, baseline=baseline)]
    if save:
        run_id = store.put(bench_run(record))
        lines.append(f"  store      : {run_id}")
    ok = True
    if check and baseline is not None:
        floor = baseline * (1.0 - PERF_REGRESSION_TOLERANCE)
        current = record["replay"]["events_per_sec"]
        if current < floor:
            ok = False
            lines.append(
                f"  REGRESSION : {current:,.0f} events/sec is below the "
                f"{1.0 - PERF_REGRESSION_TOLERANCE:.0%} floor of the best comparable "
                f"prior run ({floor:,.0f})"
            )
        else:
            lines.append("  check      : within tolerance")
    elif check:
        lines.append(
            "  check      : no comparable baseline (same quick flag, python, "
            "implementation, cpu_count and platform); comparison skipped"
        )
    return "\n".join(lines), ok
