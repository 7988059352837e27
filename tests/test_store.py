"""Run-store tests: fingerprints, round-trips, diffs, gates, API.

The store's core promise is the fingerprint contract: two same-seed
runs fingerprint identically no matter the execution plan (serial vs
``--jobs N``), the process (PYTHONHASHSEED), or when they ran — and
``diff`` on such runs reports zero drift.  The comparison engine's
thresholds are pinned against synthetic regressions so the CI gates
(``perf --check``, ``load --check``) fail exactly when they should.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from repro.load import ArrivalSpec, LoadSpec, run_load
from repro.load.report import load_record
from repro.store import (
    CHAOS,
    LOAD,
    P999_REGRESSION_TOLERANCE,
    RunRecord,
    RunStore,
    bench_run,
    canonical,
    chaos_run,
    check_load_regression,
    diff_runs,
    figure_run,
    find_load_baseline,
    fingerprint,
    load_run,
    metric_history,
    render_diff,
    render_history,
)
from repro.store.compare import extract_metric

REPO_ROOT = Path(__file__).resolve().parent.parent


def tiny_load_spec(**kw) -> LoadSpec:
    base = dict(
        system="hyper",
        arrival=ArrivalSpec(n_clients=500, n_events=60),
        multipliers=(1.0,),
        seed=11,
    )
    base.update(kw)
    return LoadSpec(**base)


def bench_record(events_per_sec=1_000_000.0, txns_per_sec=20_000.0, ts="2026-08-01T00:00:00"):
    """A synthetic perf record (the shape ``perf.collect_record`` builds)."""
    return {
        "timestamp": ts,
        "quick": True,
        "provenance": {"git_sha": "deadbeef", "python": "3.12.0"},
        "replay": {
            "events_per_round": 3500,
            "rounds": 10,
            "best_round_s": 0.003,
            "events_per_sec": events_per_sec,
        },
        "engine": {"txns": 1000, "wall_s": 0.05, "txns_per_sec": txns_per_sec},
        "figure_sweep": {"figures": ["fig13"], "jobs": 1, "wall_s": 1.0},
    }


COMMITTED_STORE = Path(__file__).resolve().parents[1] / "benchmarks" / "store"

# The command that recorded each committed load run.  Re-running it must
# reproduce the stored fingerprint, or `load --check` gates against a
# run that no longer describes the code.
COMMITTED_LOAD_ARGV = {
    "load-2026-08-08-001": (
        "load --clients 100000 --arrival burst --replicas 2 --ack quorum --events 120"
    ),
    "load-2026-08-08-002": (
        "load --clients 200 --events 240 --shards 2 --chaos coordinator-crash"
    ),
    "load-2026-08-08-003": (
        "load --clients 200 --events 240 --shards 2 --chaos coordinator-crash "
        "--timeout-ms 5 --retry 2 --shed 64"
    ),
}


def synthetic_load_record(p999=1000.0, ts="2026-08-01T00:00:00", seed=42):
    return {
        "timestamp": ts,
        "provenance": {"git_sha": "deadbeef"},
        "spec": {
            "system": "hyper", "mix": "read-write", "backend": "plain",
            "process": "poisson", "clients": 100, "streams": 4,
            "events_per_point": 40, "think_ms": 0.0, "servers": 1,
            "shards": 0, "replicas": 0, "ack": "quorum",
            "fault_rate": 0.0, "seed": seed,
        },
        "capacity_tps": 50_000.0,
        "base_rate_tps": 50_000.0,
        "points": [
            {
                "multiplier": 1.0, "offered_tps": 50_000.0,
                "achieved_tps": 49_000.0, "committed": 40, "aborted": 0,
                "events": 40, "mean_queueing_us": 1.0, "mean_service_us": 2.0,
                "p50_us": 100.0, "p99_us": 500.0, "p999_us": p999,
            }
        ],
    }


class TestFingerprint:
    def test_volatile_keys_do_not_enter(self):
        a = {"value": 3, "timestamp": "2026-01-01T00:00:00", "git_sha": "aaa"}
        b = {"value": 3, "timestamp": "2030-12-31T23:59:59", "git_sha": "bbb"}
        assert fingerprint(a) == fingerprint(b)

    def test_jobs_is_volatile(self):
        assert fingerprint({"x": 1, "jobs": 1}) == fingerprint({"x": 1, "jobs": 8})

    def test_payload_changes_move_the_fingerprint(self):
        assert fingerprint({"value": 3}) != fingerprint({"value": 4})

    def test_volatile_exclusion_is_recursive(self):
        a = {"points": [{"p999_us": 5.0, "wall_s": 1.0}]}
        b = {"points": [{"p999_us": 5.0, "wall_s": 9.0}]}
        assert fingerprint(a) == fingerprint(b)

    def test_integral_floats_match_ints(self):
        # JSON round-trips may turn 1.0 into 1; content is the same.
        assert canonical({"m": 1.0}) == canonical({"m": 1})
        assert fingerprint({"m": [2.0, 3.5]}) == fingerprint({"m": [2, 3.5]})

    def test_lists_and_tuples_are_one_container(self):
        assert fingerprint({"xs": [1, 2]}) == fingerprint({"xs": (1, 2)})

    def test_dict_order_is_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_stable_across_processes_and_hashseed(self):
        payload = {"spec": {"seed": 7}, "points": [{"p999_us": 12.5}]}
        expected = fingerprint(payload)
        code = (
            "import json, sys\n"
            "from repro.store import fingerprint\n"
            "print(fingerprint(json.loads(sys.argv[1])))\n"
        )
        for hashseed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            out = subprocess.run(
                [sys.executable, "-c", code, json.dumps(payload)],
                capture_output=True, text=True, env=env, check=True,
            )
            assert out.stdout.strip() == expected


class TestRunRecord:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown run kind"):
            RunRecord(kind="vibes", spec={}, provenance={}, payload={})

    def test_fingerprint_ignores_created_and_run_id(self):
        a = load_run(synthetic_load_record(ts="2026-08-01T00:00:00"))
        b = load_run(synthetic_load_record(ts="2026-08-02T12:00:00"))
        assert a.fingerprint() == b.fingerprint()


class TestRunStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = RunStore(tmp_path)
        record = load_run(synthetic_load_record())
        run_id = store.put(record)
        assert run_id.startswith("load-2026-08-01-")
        got = store.get(run_id)
        assert got.kind == LOAD
        assert got.spec == record.spec
        assert got.payload == record.payload
        assert got.fingerprint() == record.fingerprint()
        meta = store.meta(run_id)
        assert meta["fingerprint"] == record.fingerprint()
        assert meta["summary"]["p999_us"] == 1000.0

    def test_run_ids_sort_by_date_then_sequence(self, tmp_path):
        store = RunStore(tmp_path)
        ids = [
            store.put(load_run(synthetic_load_record(ts="2026-08-02T00:00:00"))),
            store.put(bench_run(bench_record(ts="2026-08-01T00:00:00"))),
            store.put(load_run(synthetic_load_record(ts="2026-08-02T09:00:00"))),
        ]
        listed = store.run_ids()
        assert set(listed) == set(ids)
        assert listed[0].startswith("bench-2026-08-01")
        assert listed.index(ids[0]) < listed.index(ids[2])

    def test_every_section_lands_as_json(self, tmp_path):
        store = RunStore(tmp_path)
        record = chaos_run(
            {"quick": True},
            [{"system": "hyper", "workload": "micro", "seed": 1, "ok": True,
              "failed_invariants": [], "report": "... digest 123 ..."}],
            True,
            created="2026-08-01T00:00:00",
            provenance={"git_sha": "deadbeef"},
        )
        run_id = store.put(record)
        run_dir = tmp_path / run_id
        for name in ("meta.json", "spec.json", "provenance.json",
                     "result.json", "verdicts.json"):
            assert (run_dir / name).exists(), name
        verdicts = json.loads((run_dir / "verdicts.json").read_text())
        assert verdicts["cells"][0]["digest"] == 123

    def test_get_missing_run_raises(self, tmp_path):
        with pytest.raises(KeyError, match="no run"):
            RunStore(tmp_path).get("load-2026-01-01-001")

    def test_list_runs_unknown_kind_raises(self, tmp_path):
        with pytest.raises(KeyError, match="unknown run kind"):
            RunStore(tmp_path).list_runs("vibes")


class TestSameSeedFingerprints:
    def test_serial_vs_jobs_fingerprint_identically(self):
        spec = tiny_load_spec()
        serial = load_run(load_record(run_load(spec, jobs=1)))
        fanned = load_run(load_record(run_load(spec, jobs=2)))
        assert serial.fingerprint() == fanned.fingerprint()
        diff = diff_runs(serial, fanned)
        assert diff.identical and diff.ok
        assert "zero drift" in render_diff(diff)

    def test_different_seeds_fingerprint_differently(self):
        a = load_run(load_record(run_load(tiny_load_spec(seed=11))))
        b = load_run(load_record(run_load(tiny_load_spec(seed=12))))
        assert a.fingerprint() != b.fingerprint()


class TestDiffEngine:
    def test_bench_perf_regression_flagged(self):
        a = bench_run(bench_record(events_per_sec=1_000_000.0))
        b = bench_run(bench_record(events_per_sec=600_000.0))
        diff = diff_runs(a, b)
        assert not diff.ok
        assert any("perf-regression" in flag for flag in diff.regressions)

    def test_bench_within_tolerance_passes(self):
        a = bench_run(bench_record(events_per_sec=1_000_000.0))
        b = bench_run(bench_record(events_per_sec=800_000.0))
        assert diff_runs(a, b).ok

    def test_wall_clock_sweep_never_flags(self):
        a = bench_run(bench_record())
        b_raw = bench_record()
        b_raw["figure_sweep"]["wall_s"] = 100.0
        assert diff_runs(a, bench_run(b_raw)).ok

    def test_load_p999_regression_flagged(self):
        a = load_run(synthetic_load_record(p999=1000.0))
        grown = 1000.0 * (1.0 + P999_REGRESSION_TOLERANCE) * 1.05
        b = load_run(synthetic_load_record(p999=grown))
        diff = diff_runs(a, b)
        assert not diff.ok
        assert any("p999-regression" in flag for flag in diff.regressions)

    def test_load_p999_improvement_passes(self):
        a = load_run(synthetic_load_record(p999=1000.0))
        b = load_run(synthetic_load_record(p999=500.0))
        assert diff_runs(a, b).ok

    def test_figure_drift_flagged(self):
        def panel_payload(value):
            return {
                "spec": {"figures": ["fig1"], "quick": True},
                "payload": {
                    "panels": [
                        {
                            "figure_id": "fig1", "title": "t", "metric": "m",
                            "x_label": "x", "x_values": [1], "systems": ["hyper"],
                            "cells": [{"system": "hyper", "x": 1, "value": value}],
                        }
                    ]
                },
            }

        a = RunRecord(kind="figure", provenance={}, **panel_payload(100.0))
        b = RunRecord(kind="figure", provenance={}, **panel_payload(104.0))
        diff = diff_runs(a, b)
        assert not diff.ok
        assert any("figure-drift" in flag for flag in diff.regressions)
        same = RunRecord(kind="figure", provenance={}, **panel_payload(100.0))
        assert diff_runs(a, same).identical

    def test_chaos_verdict_flip_flagged(self):
        def cells(ok, failed):
            return [{"system": "hyper", "workload": "micro", "seed": 1,
                     "ok": ok, "failed_invariants": failed,
                     "report": "... digest 42 ..."}]

        a = chaos_run({"quick": True}, cells(True, []), True)
        b = chaos_run({"quick": True}, cells(False, ["tpcc-consistency"]), False)
        diff = diff_runs(a, b)
        assert not diff.ok
        assert any("flipped PASS -> FAIL" in change for change in diff.regressions)

    def test_chaos_digest_change_flagged(self):
        def cells(digest):
            return [{"system": "hyper", "workload": "micro", "seed": 1,
                     "ok": True, "failed_invariants": [],
                     "report": f"... digest {digest} ..."}]

        a = chaos_run({"quick": True}, cells(42), True)
        b = chaos_run({"quick": True}, cells(43), True)
        diff = diff_runs(a, b)
        assert any("chaos-digest" in change for change in diff.regressions)

    def test_kind_mismatch_raises(self):
        a = bench_run(bench_record())
        b = load_run(synthetic_load_record())
        with pytest.raises(ValueError, match="cannot diff"):
            diff_runs(a, b)


class TestLoadCheckGate:
    def test_no_baseline_passes(self):
        fresh = load_run(synthetic_load_record())
        text, ok = check_load_regression(fresh, [])
        assert ok and "no comparable baseline" in text

    def test_matching_baseline_within_tolerance_passes(self):
        baseline = load_run(synthetic_load_record(p999=1000.0))
        fresh = load_run(synthetic_load_record(p999=1100.0, ts="2026-08-02T00:00:00"))
        text, ok = check_load_regression(fresh, [baseline])
        assert ok and "gate: p999 within" in text

    def test_regression_fails(self):
        baseline = load_run(synthetic_load_record(p999=1000.0))
        fresh = load_run(synthetic_load_record(p999=1500.0, ts="2026-08-02T00:00:00"))
        text, ok = check_load_regression(fresh, [baseline])
        assert not ok and "GATE FAILED" in text

    def test_different_spec_is_not_a_baseline(self):
        baseline = load_run(synthetic_load_record(p999=1000.0, seed=1))
        fresh = load_run(synthetic_load_record(p999=9000.0, seed=2))
        _, ok = check_load_regression(fresh, [baseline])
        assert ok  # different seed = different experiment, nothing to gate

    def test_base_rate_and_multipliers_pick_the_baseline(self):
        # The stored spec holds neither --rate nor --multipliers, so the
        # payload tells which experiment a run measured.
        calibrated = load_run(synthetic_load_record())
        record = synthetic_load_record(p999=9000.0, ts="2026-08-02T00:00:00")
        fixed_rate = load_run({**record, "base_rate_tps": 2000.0})
        assert find_load_baseline(fixed_rate, [calibrated]) is None
        point = {**record["points"][0], "multiplier": 2.0}
        other_sweep = load_run({**record, "points": [point]})
        assert find_load_baseline(other_sweep, [calibrated]) is None
        # A calibrated run matches however its probed capacity moved.
        recalibrated = load_run(
            {**record, "capacity_tps": 40_000.0, "base_rate_tps": 40_000.0}
        )
        assert find_load_baseline(recalibrated, [calibrated]) is calibrated

    def test_most_recent_matching_baseline_wins(self):
        old = load_run(synthetic_load_record(p999=100.0, ts="2026-08-01T00:00:00"))
        new = load_run(synthetic_load_record(p999=1000.0, ts="2026-08-03T00:00:00"))
        fresh = load_run(synthetic_load_record(p999=1100.0, ts="2026-08-04T00:00:00"))
        _, ok = check_load_regression(fresh, [old, new])
        assert ok  # gated against the recent 1000, not the ancient 100


class TestMetricHistory:
    def test_history_across_kinds(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(bench_run(bench_record(events_per_sec=1.0e6, ts="2026-08-01T00:00:00")))
        store.put(bench_run(bench_record(events_per_sec=2.0e6, ts="2026-08-02T00:00:00")))
        store.put(load_run(synthetic_load_record(p999=123.0)))
        history = metric_history(store, "events_per_sec")
        assert [value for _, value in history] == [1.0e6, 2.0e6]
        assert metric_history(store, "p999_us")[0][1] == 123.0
        text = render_history("events_per_sec", history)
        assert "2 run(s)" in text and "min" in text

    def test_dotted_path_fallback(self):
        record = bench_run(bench_record(txns_per_sec=777.0))
        assert extract_metric(record, "engine.txns_per_sec") == 777.0
        assert extract_metric(record, "engine.nope") is None

    def test_chaos_ok_metric(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(
            chaos_run({"quick": True}, [], True, created="2026-08-01T00:00:00")
        )
        assert metric_history(store, "chaos_ok") [0][1] == 1.0


class TestHttpApi:
    @pytest.fixture()
    def server(self, tmp_path):
        from repro.store.server import make_server

        store = RunStore(tmp_path)
        a = store.put(load_run(synthetic_load_record(ts="2026-08-01T00:00:00")))
        b = store.put(load_run(synthetic_load_record(ts="2026-08-02T00:00:00")))
        c = store.put(bench_run(bench_record()))
        server = make_server(store, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server, (a, b, c)
        server.shutdown()
        server.server_close()

    def _get(self, server, path):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1])
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def test_dashboard_html(self, server):
        srv, _ = server
        status, body = self._get(srv, "/")
        assert status == 200
        assert b"<title>repro run store</title>" in body
        assert b"sparkline" in body  # the inline-SVG chart code shipped

    def test_runs_listing(self, server):
        srv, (a, b, c) = server
        status, body = self._get(srv, "/runs")
        assert status == 200
        metas = json.loads(body)
        assert {m["run_id"] for m in metas} == {a, b, c}
        assert all("fingerprint" in m for m in metas)

    def test_single_run(self, server):
        srv, (a, _, _) = server
        status, body = self._get(srv, f"/runs/{a}")
        assert status == 200
        run = json.loads(body)
        assert run["kind"] == LOAD and run["payload"]["points"]

    def test_diff_same_seed_zero_drift(self, server):
        srv, (a, b, _) = server
        status, body = self._get(srv, f"/diff/{a}/{b}")
        assert status == 200
        diff = json.loads(body)
        assert diff["identical"] is True and diff["ok"] is True
        assert diff["fingerprint_a"] == diff["fingerprint_b"]

    def test_history_endpoint(self, server):
        srv, _ = server
        status, body = self._get(srv, "/history/p999_us")
        assert status == 200
        payload = json.loads(body)
        assert len(payload["history"]) == 2

    def test_unknown_run_is_404(self, server):
        srv, _ = server
        status, body = self._get(srv, "/runs/load-1999-01-01-001")
        assert status == 404 and b"error" in body

    def test_kind_mismatch_diff_is_400(self, server):
        srv, (a, _, c) = server
        status, body = self._get(srv, f"/diff/{a}/{c}")
        assert status == 400 and b"cannot diff" in body

    def test_unknown_route_is_404(self, server):
        srv, _ = server
        status, _ = self._get(srv, "/nope/nope/nope/nope")
        assert status == 404


class TestCli:
    def _main(self, argv):
        from repro.bench.cli import main

        return main(argv)

    def test_store_list(self, tmp_path, capsys):
        RunStore(tmp_path / "store").put(load_run(synthetic_load_record()))
        code = self._main(["store", "list", "--store-dir", str(tmp_path / "store")])
        assert code == 0
        out = capsys.readouterr().out
        assert "load-2026-08-01-001" in out

    def test_diff_cli_exit_codes(self, tmp_path, capsys):
        store = RunStore(tmp_path)
        a = store.put(load_run(synthetic_load_record(p999=1000.0)))
        b = store.put(
            load_run(synthetic_load_record(p999=2000.0, ts="2026-08-02T00:00:00"))
        )
        assert self._main(["diff", a, a, "--store-dir", str(tmp_path)]) == 0
        assert "zero drift" in capsys.readouterr().out
        assert self._main(["diff", a, b, "--store-dir", str(tmp_path)]) == 1
        assert "p999-regression" in capsys.readouterr().out
        assert self._main(["diff", a, "nope", "--store-dir", str(tmp_path)]) == 2

    def test_history_cli(self, tmp_path, capsys):
        store = RunStore(tmp_path)
        store.put(load_run(synthetic_load_record()))
        assert self._main(["history", "p999_us", "--store-dir", str(tmp_path)]) == 0
        assert "1 run(s)" in capsys.readouterr().out

    def test_load_check_gate_end_to_end(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = ["load", "--clients", "200", "--events", "40", "--multipliers", "1",
                "--store-dir", str(tmp_path / "store")]
        # First run has nothing to gate against: loud exit 2, but the
        # run is still recorded so it becomes the next check's baseline.
        assert self._main(args + ["--check"]) == 2
        captured = capsys.readouterr()
        assert "no matching baseline" in captured.err
        assert "store: load-" in captured.out
        # Second identical run gates against it with zero drift.
        assert self._main(args + ["--check", "--no-save"]) == 0
        out = capsys.readouterr().out
        assert "fingerprints identical" in out
        assert "gate: p999 within" in out

    def test_load_check_at_a_fixed_rate_has_no_calibrated_baseline(self, tmp_path, capsys):
        # The committed coordinator-crash sweep ran at its probed
        # capacity (16,129 tps); a --rate 2000 run of the same stored
        # spec is another experiment and must not gate against it.
        run_id = "load-2026-08-08-002"
        shutil.copytree(COMMITTED_STORE / run_id, tmp_path / run_id)
        argv = COMMITTED_LOAD_ARGV[run_id].split() + [
            "--rate", "2000", "--check", "--no-save", "--store-dir", str(tmp_path),
        ]
        assert self._main(argv) == 2
        assert "no matching baseline" in capsys.readouterr().err

    def test_load_check_fails_on_planted_p999_regression(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        args = ["load", "--clients", "200", "--events", "40", "--multipliers", "1",
                "--store-dir", str(store_dir)]
        assert self._main(args) == 0
        capsys.readouterr()
        store = RunStore(store_dir)
        (run_id,) = store.run_ids()
        recorded = store.get(run_id)
        # A later baseline with the same spec whose p999 is half of what
        # this build measures: the fresh run is a 2x p999 regression.
        points = [{**p, "p999_us": p["p999_us"] / 2} for p in recorded.payload["points"]]
        store.put(
            replace(
                recorded,
                payload={**recorded.payload, "points": points},
                created="2999-01-01T00:00:00",
            )
        )
        assert self._main(args + ["--check", "--no-save"]) == 1
        out = capsys.readouterr().out
        assert "load check vs load-2999-01-01-001" in out
        assert "GATE FAILED" in out
        assert len(store.run_ids()) == 2  # --no-save recorded nothing


class TestCommittedLoadRunsReproduce:
    def test_every_committed_load_run_has_a_command(self):
        committed = sorted(path.name for path in COMMITTED_STORE.glob("load-*"))
        assert committed == sorted(COMMITTED_LOAD_ARGV)

    @pytest.mark.parametrize("run_id", sorted(COMMITTED_LOAD_ARGV))
    def test_rerun_matches_stored_fingerprint(self, run_id, tmp_path, capsys):
        from repro.bench.cli import main

        argv = COMMITTED_LOAD_ARGV[run_id].split() + ["--store-dir", str(tmp_path)]
        assert main(argv) == 0
        (fresh,) = RunStore(tmp_path).list_runs()
        (committed,) = [
            meta for meta in RunStore(COMMITTED_STORE).list_runs()
            if meta["run_id"] == run_id
        ]
        assert fresh["fingerprint"] == committed["fingerprint"]
