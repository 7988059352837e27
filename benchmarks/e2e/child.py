"""One pass of one end-to-end workload, in a fresh process.

``run.py`` starts this file once per pass with ``PYTHONPATH`` set to the
checkout's ``src``; everything a pass costs (interpreter start, imports,
spec build, the runs themselves) is therefore what one ``repro-bench``
invocation costs.  The pass calls only the public entry points,
``ExperimentRunner(...).run(jobs=1)`` and ``run_load(..., jobs=1)``,
checks every unit afterwards (outside the timed region), and prints one
JSON record on its last stdout line.

With ``--trace DIR`` the pass runs under the outside-in layer tracer of
:mod:`spans` and writes ``trace.json`` (Chrome trace-event format) and
``layers.txt`` into *DIR*.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

import spans
from repro.bench.figures.common import (
    MULTITHREADED_CORES,
    MULTITHREADED_SYSTEMS,
    TPC_DB_BYTES,
    cell_spec,
    engine_config_for,
)
from repro.bench.parallel import workload_spec
from repro.bench.runner import MIN_MEASURED_TXNS, ExperimentRunner, RunSpec
from repro.engines.registry import ALL_SYSTEMS
from repro.load import ArrivalSpec, LoadSpec, run_load
from repro.load.driver import PROBE_TXNS, PROBE_WARMUP
from repro.load.resilience import chaos_suite
from repro.obs import nearest_rank

ROOT = Path(__file__).resolve().parents[2]
MAX_IPC = 4.0
NO_ACKED_LOSS = "no-acked-loss-under-load"


def digest(obj) -> str:
    """sha256 of a result's canonical JSON form (compared fields only)."""
    return hashlib.sha256(
        json.dumps(_canonical(obj), sort_keys=True).encode()
    ).hexdigest()


def _canonical(obj):
    if is_dataclass(obj):
        return {f.name: _canonical(getattr(obj, f.name)) for f in fields(obj) if f.compare}
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


# -- the two kinds of timed call ---------------------------------------------


@dataclass(frozen=True)
class FigCell:
    """One figure cell: a closed-loop ExperimentRunner run; one unit."""

    spec: RunSpec
    workload: object

    def unit_names(self) -> list[str]:
        return [self.spec.system]

    def run(self):
        return ExperimentRunner(self.spec, self.workload).run(jobs=1)

    @staticmethod
    def work(result) -> int:
        return result.measured_txns

    def units(self, result) -> list[dict]:
        return [{"unit": self.spec.system, "problems": check_cell(result), "digest": digest(result)}]

    def headline(self, result) -> dict[str, float]:
        return {f"ipc.{self.spec.system}": result.ipc}


@dataclass(frozen=True)
class LoadSweep:
    """One open-loop sweep: capacity probe + one unit per multiplier."""

    spec: LoadSpec

    def unit_names(self) -> list[str]:
        return [f"x{m:g}" for m in self.spec.multipliers]

    def run(self):
        return run_load(self.spec, jobs=1)

    @staticmethod
    def work(result) -> int:
        # Simulated requests: every sweep event plus the capacity probe.
        return sum(p.n_events for p in result.points) + PROBE_WARMUP + PROBE_TXNS

    def units(self, result) -> list[dict]:
        return [
            {
                "unit": name,
                "problems": check_point(point, chaos=self.spec.chaos is not None),
                "digest": digest((result.capacity_tps, result.base_rate, point)),
            }
            for name, point in zip(self.unit_names(), result.points)
        ]

    def headline(self, result) -> dict[str, float]:
        out = {"capacity_tps": result.capacity_tps}
        for point in result.points:
            if point.multiplier == 1.0:
                out["p99_us_at_1x"] = nearest_rank(point.latencies_ns, 99) / 1e3
        return out


def check_cell(result) -> list[str]:
    problems = []
    if result.measured_txns < MIN_MEASURED_TXNS:
        problems.append(f"measured_txns {result.measured_txns} < {MIN_MEASURED_TXNS}")
    if not 0.0 < result.ipc <= MAX_IPC:
        problems.append(f"IPC {result.ipc!r} outside (0, {MAX_IPC}]")
    negative = [f.name for f in fields(result.counters) if getattr(result.counters, f.name) < 0]
    if negative:
        problems.append(f"negative counters: {', '.join(negative)}")
    return problems


def check_point(point, *, chaos: bool) -> list[str]:
    problems = []
    n = len(point.queueing_ns)
    if len(point.service_ns) != n or len(point.ops) != n:
        problems.append(
            f"queueing/service/ops lengths differ: "
            f"{n}/{len(point.service_ns)}/{len(point.ops)}"
        )
    if any(q < 0 for q in point.queueing_ns):
        problems.append("negative queueing delay")
    if any(s <= 0 for s in point.service_ns):
        problems.append("non-positive service time")
    if point.committed <= 0:
        problems.append("no committed requests")
    if chaos:
        verdicts = point.chaos.verdict_map() if point.chaos is not None else {}
        if verdicts.get(NO_ACKED_LOSS) is not True:
            problems.append(f"verdict {NO_ACKED_LOSS} does not hold")
    return problems


# -- workloads ---------------------------------------------------------------


def _load_spec(seed: int, n_events: int, **backend) -> LoadSpec:
    return LoadSpec(
        system="hyper",
        mix="read-write",
        arrival=ArrivalSpec(process="poisson", n_clients=1000, n_events=n_events),
        seed=seed,
        **backend,
    )


def build_tasks(workload: str, seed: int) -> list:
    """The timed calls of one pass of *workload*, seeded by *seed*."""
    if workload == "fig-micro-100gb":
        wl = workload_spec("micro", db_bytes=TPC_DB_BYTES, rows_per_txn=10)
        return [
            FigCell(replace(cell_spec(s, engine_config=engine_config_for(s, "micro")), seed=seed), wl)
            for s in ALL_SYSTEMS
        ]
    if workload == "fig-tpcb-4core":
        # TPC-B rather than TPC-C: TPC-C's shore-mt and dbms-d cells stop
        # at the runner's commit floor, not the event budget, so their
        # host time follows the seed's mix of heavy transactions (23%
        # spread over ten seeds); TPC-B replays the same event count on
        # every seed.
        wl = workload_spec("tpcb", db_bytes=TPC_DB_BYTES)
        return [
            FigCell(
                replace(
                    cell_spec(
                        s, engine_config=engine_config_for(s, "tpcb"), n_cores=MULTITHREADED_CORES
                    ),
                    seed=seed,
                ),
                wl,
            )
            for s in MULTITHREADED_SYSTEMS
        ]
    if workload == "load-replicated-crash":
        return [LoadSweep(_load_spec(seed, 2000, replicas=2, ack="quorum", chaos=chaos_suite("crash")))]
    if workload == "load-sharded":
        return [LoadSweep(_load_spec(seed, 1000, shards=3, remote_pct=10))]
    raise ValueError(f"unknown workload {workload!r}")


# -- one pass ----------------------------------------------------------------


def run_pass(tasks: list, tracer: spans.Tracer | None = None) -> dict:
    """Run *tasks* back to back, then check them; returns the pass record.

    ``task_wall_s`` times each public call and nothing else.  When
    *tracer* is given the layer wrappers are installed for the calls and
    removed afterwards, and the timed region is the tracer's root span.
    """
    installed = spans.install(tracer) if tracer is not None else None
    try:
        t_first_unit = time.monotonic()
        root = tracer.open(spans.ROOT_SPAN) if tracer is not None else None
        outcomes = []
        task_wall_s = []
        for task in tasks:
            t0 = time.perf_counter()
            try:
                outcomes.append((task, task.run(), None))
            except Exception as exc:  # a unit that raised counts as failed
                outcomes.append((task, None, exc))
            task_wall_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.close(root)
    finally:
        if installed is not None:
            spans.remove(installed)

    units: list[dict] = []
    headline: dict[str, float] = {}
    work = 0
    for task, result, exc in outcomes:
        if exc is not None:
            units.extend(
                {"unit": name, "problems": [f"raised {exc!r}"], "digest": None}
                for name in task.unit_names()
            )
            continue
        units.extend(task.units(result))
        headline.update(task.headline(result))
        work += task.work(result)
    return {
        "t_first_unit": t_first_unit,
        "task_wall_s": task_wall_s,
        "work": work,
        "units": units,
        "headline": headline,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def write_trace(tracer: spans.Tracer, label: str, out_dir: Path) -> list[str]:
    """Write the Chrome trace and per-layer table; returns trace problems."""
    from repro.obs import SpanEvent
    from repro.obs.exporters import validate_trace_file, write_chrome_trace

    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = min((s[2] for s in tracer.spans), default=0)
    events = [
        SpanEvent(
            name=name,
            track="host",
            cat=name.split(".")[0],
            ts_us=(start - t0) / 1e3,
            dur_us=(end - start) / 1e3,
            args={"id": span_id, "parent": parent, **folded},
        )
        for span_id, name, start, end, parent, folded in tracer.spans
    ]
    trace_path = out_dir / "trace.json"
    write_chrome_trace(trace_path, [(label, events)])

    wall = tracer.total_s(spans.ROOT_SPAN)
    rows = [f"{'span':<28} {'calls':>9} {'self_s':>9} {'total_s':>9} {'self%':>6}"]
    for name in [spans.ROOT_SPAN] + [layer.name for layer in spans.LAYERS]:
        if tracer.calls(name):
            rows.append(
                f"{name:<28} {tracer.calls(name):>9} {tracer.self_s(name):>9.4f} "
                f"{tracer.total_s(name):>9.4f} {100 * tracer.self_s(name) / wall:>5.1f}%"
            )
    (out_dir / "layers.txt").write_text("\n".join(rows) + "\n")
    return validate_trace_file(trace_path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=Path, default=None, metavar="DIR")
    args = parser.parse_args(argv)

    import repro

    src = ROOT / "src"
    if src not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not from {src}", file=sys.stderr)
        return 2
    tasks = build_tasks(args.workload, args.seed)
    tracer = spans.Tracer() if args.trace is not None else None
    record = run_pass(tasks, tracer)
    record["traced"] = tracer is not None
    if tracer is not None:
        record["layers"] = spans.layer_metrics(tracer)
        record["trace_problems"] = write_trace(tracer, args.workload, args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
