"""Tests for the end-to-end benchmark.

Run from the repository root: ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import child
import run
import spans
from repro.bench.parallel import workload_spec
from repro.bench.runner import RunSpec
from repro.load import ArrivalSpec, LoadSpec
from repro.load.resilience import chaos_suite

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _reduced_tasks() -> list:
    cell = child.FigCell(
        RunSpec(system="hyper", measure_events=4000, warmup_events=1000, repetitions=1),
        workload_spec("micro", db_bytes=10 << 20, rows_per_txn=10),
    )
    sweep = child.LoadSweep(
        LoadSpec(
            system="hyper",
            mix="read-write",
            arrival=ArrivalSpec(n_clients=100, n_events=200),
            replicas=2,
            chaos=chaos_suite("crash"),
            multipliers=(1.0,),
        )
    )
    return [cell, sweep]


@pytest.fixture(scope="module")
def traced_and_plain():
    tasks = _reduced_tasks()
    tracer = spans.Tracer()
    traced = child.run_pass(tasks, tracer)
    plain = child.run_pass(tasks)
    return tasks, tracer, traced, plain


def _installed_wrappers() -> list[str]:
    """Dotted names of every layer wrapper still bound in a repro module."""
    found = []
    for module in spans._repro_modules():
        for name, value in vars(module).items():
            if hasattr(value, "__e2e_original__"):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found.extend(
                    f"{module.__name__}.{name}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, "__e2e_original__")
                )
    return found


def _record(units: list[dict], *, traced: bool = False, layers: dict | None = None) -> dict:
    return {
        "task_wall_s": [1.0 + 0.1 * traced],
        "setup_s": 0.2,
        "work": 100,
        "units": units,
        "headline": {"ipc.hyper": 1.0},
        "maxrss_kb": 50_000,
        "traced": traced,
        "layers": layers,
        "trace_problems": [],
    }


# -- the tracer --------------------------------------------------------------


def test_self_time_subtracts_child_spans_and_folded_calls():
    ticks = iter([0, 10, 15, 40, 50, 55, 100, 110])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    root = tracer.open("pass")  # 0
    outer = tracer.open("a")  # 10
    assert tracer.open("a") is None  # re-entrant call stays in the outer frame
    tracer.close(tracer.open("b"), folded=True)  # 15 .. 40
    tracer.close(outer)  # 50
    tracer.close(tracer.open("c"))  # 55 .. 100
    tracer.close(root)  # 110

    assert tracer.totals == {
        "b": [1, 25, 25],
        "a": [1, 15, 40],
        "c": [1, 45, 45],
        "pass": [1, 110 - 40 - 45, 110],
    }
    recorded = {name: (start, end, parent, folded) for _, name, start, end, parent, folded in tracer.spans}
    assert set(recorded) == {"a", "c", "pass"}  # the folded call writes no span
    assert recorded["a"] == (10, 50, 1, {"b": 1})
    assert recorded["pass"][2] is None
    assert spans.layer_metrics(tracer)["trace.coverage_frac"] == pytest.approx(1 - 25 / 110)


def test_close_out_of_order_is_an_error():
    tracer = spans.Tracer()
    first = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(first)


@pytest.mark.parametrize("dotted", [t for layer in spans.LAYERS for t in layer.targets])
def test_every_wrapped_function_still_exists(dotted):
    _owner, _attr, target = spans.resolve(dotted)
    assert callable(target)


def test_install_rebinds_imported_names_and_remove_restores_them():
    import repro.bench.parallel as parallel
    import repro.bench.runner as runner

    original = runner.run_repetition
    done = spans.install(spans.Tracer())
    try:
        assert parallel.run_repetition is runner.run_repetition is not original
        assert "repro.bench.parallel.run_repetition" in _installed_wrappers()
    finally:
        spans.remove(done)
    assert parallel.run_repetition is runner.run_repetition is original
    assert _installed_wrappers() == []


# -- traced and untraced passes ----------------------------------------------


def test_traced_and_untraced_passes_give_identical_digests(traced_and_plain):
    tasks, tracer, traced, plain = traced_and_plain
    assert [u["digest"] for u in traced["units"]] == [u["digest"] for u in plain["units"]]
    assert [u["problems"] for u in plain["units"]] == [[], []]
    assert tracer.calls("bench.run_repetition") == 1
    assert tracer.calls("load.run_load_point") == 1
    assert tracer.calls("storage.probe_lines") > 0
    assert _installed_wrappers() == []


def test_traced_pass_writes_a_valid_chrome_trace(traced_and_plain, tmp_path):
    _tasks, tracer, _traced, _plain = traced_and_plain
    assert child.write_trace(tracer, "reduced", tmp_path) == []
    doc = json.loads((tmp_path / "trace.json").read_text())
    names = {row["name"] for row in doc["traceEvents"]}
    assert "storage.probe_lines" not in names  # folded into its parent span
    assert {"pass", "engines.execute", "replication.submit"} <= names
    assert "core.run_trace" in (tmp_path / "layers.txt").read_text()


# -- checks and the summary --------------------------------------------------


def test_planted_failing_cell_fails_the_run(traced_and_plain, monkeypatch, capsys):
    tasks, _tracer, _traced, plain = traced_and_plain
    result = tasks[0].run()
    bad = tasks[0].units(replace(result, measured_txns=0))
    assert bad[0]["problems"]

    good = plain["units"][:1]
    passes = [_record(good), _record(bad), _record(good)]
    monkeypatch.setattr(run, "run_passes", lambda *args: passes)
    assert run.main(["--workload", "fig-micro-100gb"]) == 1
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["correct"] is False
    assert (out["attempted"], out["failed"]) == (3, 1)


def test_digest_drift_between_passes_is_a_failure():
    units = [{"unit": "x1", "problems": [], "digest": "a"}]
    drifted = [{"unit": "x1", "problems": [], "digest": "b"}]
    _lines, result = run.summarize("load-sharded", [_record(units), _record(drifted)], False)
    assert (result["correct"], result["failed"]) == (False, 1)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    units = [{"unit": "hyper", "problems": [], "digest": "d"}]
    layers = spans.layer_metrics(spans.Tracer())
    passes = [_record(units), _record(units, traced=trace, layers=layers)]
    lines, result = run.summarize("fig-micro-100gb", passes, trace)

    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert printed == declared
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(NAME.fullmatch(name) for name in printed)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_simulator_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e")
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "load-sharded", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
