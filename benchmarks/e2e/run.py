"""End-to-end simulator benchmark: host time of four user-facing paths.

Usage, from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each pass of the workload runs in a fresh child process (``child.py``),
one at a time, so nothing one pass caches can speed up the next and a
pass costs what one ``repro-bench`` invocation costs.  Passes repeat
until the next one would end after ``--seconds`` (at least
:data:`MIN_PASSES`).  The benchmark prints every metric by name with
its unit, checks every unit of every pass, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer
ones; the last traced pass's Chrome trace and layer table are written
under ``.bench_trace/<workload>/``.

Exit status: 0 when every unit passed, 1 when any unit failed its
checks, 2 when a pass could not run at all (no JSON line then).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
TRACE_DIR = ROOT / ".bench_trace"

WORKLOADS = ("fig-micro-100gb", "fig-tpcb-4core", "load-replicated-crash", "load-sharded")
MIN_PASSES = 3
DEADLINE_S = 170.0  # the whole run, passes and all

E2E_UNITS = {
    "wall_s": "s",
    "sim_txn_per_s": "txn/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its suffix."""
    suffix = name.rsplit(".", 1)[1]
    return {
        "self_s": "s",
        "calls": "count",
        "events": "count",
        "ns_per_event": "ns",
        "us_per_call": "us",
    }.get(suffix, "ratio")


def run_child(workload: str, seed: int, trace: bool, timeout: float) -> dict | None:
    """One pass in a fresh interpreter; None when it produced no record."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", str(TRACE_DIR / workload)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # Pinned so sim.digest is comparable across passes and commits:
    # LockManager.release_all walks a set of (table, key) tuples, so
    # shore-mt and dbms-d results still depend on the string-hash seed.
    env["PYTHONHASHSEED"] = "0"
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"pass exited with status {proc.returncode}", file=sys.stderr)
        return None
    record = json.loads(lines[-1])
    record["setup_s"] = record.pop("t_first_unit") - t_spawn
    return record


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict] | None:
    """Passes until the next would end past *seconds*; traced ones alternate."""
    step = 2 if trace else 1
    need = 2 if trace else MIN_PASSES
    start = time.monotonic()
    passes: list[dict] = []
    while True:
        elapsed = time.monotonic() - start
        record = run_child(
            workload, seed, trace and len(passes) % 2 == 1, DEADLINE_S - elapsed
        )
        if record is None:
            return None
        passes.append(record)
        elapsed = time.monotonic() - start
        next_end = elapsed + step * elapsed / len(passes)
        if len(passes) >= need and len(passes) % step == 0 and (
            next_end > seconds or next_end > DEADLINE_S
        ):
            return passes


def fastest_pass_s(passes: list[dict]) -> float:
    """Host seconds of a pass with the least interference.

    Each timed call's fastest time over *passes*, summed.  Other tenants
    of the host slow it in bursts of up to ~10 s, so a call's fastest
    run is far steadier from run to run than its median.
    """
    return sum(min(times) for times in zip(*(p["task_wall_s"] for p in passes)))


def summarize(workload: str, passes: list[dict], trace: bool) -> tuple[list[str], dict]:
    """Check every unit against pass 1 and derive the metrics.

    Returns the human-readable lines and the result object.  A unit
    fails when its own checks fail or its digest differs from pass 1's.
    """
    lines = [
        f"workload {workload}: {len(passes)} passes, host seconds "
        + " ".join(f"{sum(p['task_wall_s']):.3f}{'(traced)' * bool(p.get('traced'))}" for p in passes)
    ]
    reference = passes[0]["units"]
    attempted = failed = 0
    for i, record in enumerate(passes, 1):
        for unit, ref in zip(record["units"], reference):
            attempted += 1
            problems = list(unit["problems"])
            if unit["digest"] is None or unit["digest"] != ref["digest"]:
                problems.append("sim digest differs from pass 1")
            if problems:
                failed += 1
                lines.append(f"FAIL pass {i} unit {unit['unit']}: {'; '.join(problems)}")
    correct = failed == 0

    plain = [p for p in passes if not p.get("traced")]
    metrics: dict[str, float]
    if trace:
        traced = [p for p in passes if p.get("traced")]
        for record in traced:
            for problem in record["trace_problems"]:
                correct = False
                lines.append(f"FAIL trace file: {problem}")
        metrics = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead_frac"] = fastest_pass_s(traced) / fastest_pass_s(plain) - 1.0
        units = {name: layer_unit(name) for name in metrics}
        lines.append(f"trace files: {TRACE_DIR / workload}")
    else:
        wall_s = fastest_pass_s(plain)
        metrics = {
            "wall_s": wall_s,
            "sim_txn_per_s": passes[0]["work"] / wall_s,
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "peak_rss_mb": max(p["maxrss_kb"] for p in plain) / 1024,
        }
        units = E2E_UNITS

    sim_digest = hashlib.sha256(json.dumps([u["digest"] for u in reference]).encode())
    lines.append(f"sim.digest {sim_digest.hexdigest()}")
    for key, value in sorted(passes[0]["headline"].items()):
        lines.append(f"sim.{key} {value:.6g}")
    lines.append(
        f"units attempted {attempted} failed {failed} failed_frac {failed / max(attempted, 1):.4g}"
    )
    for name, value in metrics.items():
        lines.append(f"metric {name} {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return lines, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    if passes is None:
        return 2
    lines, result = summarize(args.workload, passes, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
