"""Observability layer tests: spans, metrics, exporters, top-down, wiring."""

import dataclasses
import json

import pytest

from repro import obs
from repro.core.counters import PerfCounters
from repro.core.cpu import PAGE_WALK_CYCLES, CycleModel, OverlapModel
from repro.core.machine import Machine
from repro.core.trace import AccessTrace
from repro.obs.exporters import (
    chrome_trace,
    prometheus_text,
    validate_chrome_trace,
    validate_trace_file,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import Histogram, MetricsRegistry, bucket_index, merge_snapshots
from repro.obs.topdown import topdown
from repro.obs.tracing import NOOP_SPAN, Tracer


@pytest.fixture(autouse=True)
def _obs_disabled():
    """Every test starts and ends with observability off."""
    obs.disable()
    obs.REGISTRY.clear()
    yield
    obs.disable()
    obs.REGISTRY.clear()


def fake_clock(step_ns=1000):
    """A deterministic monotonic clock for tracer tests."""
    state = {"now": 0}

    def clock():
        state["now"] += step_ns
        return state["now"]

    return clock


class TestTracer:
    def test_span_records_complete_event(self):
        t = Tracer(clock=fake_clock())
        with t.span("work", track="core0", cat="core", n=3) as s:
            s.set(extra=1)
        assert len(t.events) == 1
        e = t.events[0]
        assert e.name == "work"
        assert e.track == "core0"
        assert e.cat == "core"
        assert e.phase == "X"
        assert e.dur_us > 0
        assert e.args == {"n": 3, "extra": 1}

    def test_nested_spans_record_in_close_order(self):
        t = Tracer(clock=fake_clock())
        with t.span("outer", track="a"):
            with t.span("inner", track="a"):
                pass
        assert [e.name for e in t.events] == ["inner", "outer"]
        inner, outer = t.events
        assert outer.ts_us <= inner.ts_us
        assert outer.ts_us + outer.dur_us >= inner.ts_us + inner.dur_us

    def test_instant_and_complete_fast_path(self):
        t = Tracer(clock=fake_clock())
        t.instant("mark", track="x", cat="c", k=1)
        start = t.clock()
        t.complete("fast", "x", "c", start, k=2)
        assert [e.phase for e in t.events] == ["i", "X"]
        assert t.events[1].dur_us > 0

    def test_drain_from_mark(self):
        t = Tracer(clock=fake_clock())
        t.instant("a")
        mark = t.mark()
        t.instant("b")
        t.instant("c")
        drained = t.drain(mark)
        assert [e.name for e in drained] == ["b", "c"]
        assert [e.name for e in t.events] == ["a"]


class TestAmbientSwitch:
    def test_disabled_by_default_and_noop(self):
        assert not obs.enabled()
        assert obs.tracer() is None
        span = obs.span("anything", track="t")
        assert span is NOOP_SPAN
        with span as s:
            s.set(ignored=True)
        obs.annotate("nothing")
        assert obs.drain_events() == []

    def test_using_obs_installs_and_restores(self):
        with obs.using_obs(True) as t:
            assert obs.enabled()
            assert obs.tracer() is t
            with obs.span("x", track="a"):
                pass
            assert len(t.events) == 1
        assert not obs.enabled()

    def test_nested_using_obs_keeps_buffers_separate(self):
        with obs.using_obs(True) as outer:
            obs.annotate("outer-event")
            with obs.using_obs(True) as inner:
                obs.annotate("inner-event")
                assert [e.name for e in inner.events] == ["inner-event"]
            assert obs.tracer() is outer
            assert [e.name for e in outer.events] == ["outer-event"]

    def test_gated_metrics_only_when_enabled(self):
        obs.inc("off.counter")
        assert obs.REGISTRY.counters == {}
        with obs.using_obs(True):
            obs.inc("on.counter", 2)
            obs.observe("on.hist", 5)
            obs.set_gauge("on.gauge", 1.5)
            snap = obs.drain_metrics()
        assert snap["counters"][("on.counter", ())] == 2
        assert obs.drain_metrics() == {}


class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        reg = MetricsRegistry()
        reg.inc("c", 2, system="a")
        reg.inc("c", 3, system="a")
        reg.set_gauge("g", 7.5)
        reg.observe("h", 5)
        reg.observe("h", 300)
        snap = reg.snapshot()
        assert snap["counters"][("c", (("system", "a"),))] == 5
        assert snap["gauges"][("g", ())] == 7.5
        hist = snap["histograms"][("h", ())]
        assert hist["count"] == 2
        assert hist["sum"] == 305
        assert hist["buckets"] == {bucket_index(5): 1, bucket_index(300): 1}

    def test_log2_buckets_deterministic(self):
        # bucket i holds values with bit_length i: 5 -> 3, 300 -> 9.
        assert bucket_index(0) == 0
        assert bucket_index(1) == 1
        assert bucket_index(5) == 3
        assert bucket_index(300) == 9
        assert bucket_index(2**70) == 64  # overflow clamp

    def test_merge_snapshots_sums_counters_and_buckets(self):
        a = MetricsRegistry()
        a.inc("c")
        a.observe("h", 4)
        b = MetricsRegistry()
        b.inc("c", 2)
        b.observe("h", 4)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged["counters"][("c", ())] == 3
        assert merged["histograms"][("h", ())]["buckets"] == {bucket_index(4): 2}

    def test_histogram_merge(self):
        h1 = Histogram()
        h1.observe(3)
        h2 = Histogram()
        h2.observe(3)
        h2.observe(100)
        h1.merge(h2)
        assert h1.count == 3
        assert h1.sum == 106


class TestChromeExport:
    def _events(self):
        t = Tracer(clock=fake_clock())
        with t.span("outer", track="core0", cat="core"):
            t.instant("blip", track="core0", cat="core")
            with t.span("inner", track="worker0", cat="engine"):
                pass
        return t.events

    def test_valid_and_monotone(self):
        doc = chrome_trace([("rep0", self._events()), ("rep1", self._events())])
        assert validate_chrome_trace(doc) == []

    def test_one_pid_per_buffer_one_tid_per_track(self):
        doc = chrome_trace([("rep0", self._events())])
        rows = [r for r in doc["traceEvents"] if r["ph"] != "M"]
        assert {r["pid"] for r in rows} == {0}
        meta = [r for r in doc["traceEvents"] if r["ph"] == "M"]
        names = {(r["name"], r["args"]["name"]) for r in meta}
        assert ("process_name", "rep0") in names
        assert ("thread_name", "core0") in names
        assert ("thread_name", "worker0") in names

    def test_validator_rejects_backwards_ts(self):
        doc = {
            "traceEvents": [
                {"name": "a", "ph": "i", "pid": 0, "tid": 0, "ts": 5.0, "s": "t"},
                {"name": "b", "ph": "i", "pid": 0, "tid": 0, "ts": 1.0, "s": "t"},
            ]
        }
        problems = validate_chrome_trace(doc)
        assert any("backwards" in p for p in problems)

    def test_validator_rejects_bad_shapes(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "?"}]}) != []
        missing_dur = {"traceEvents": [{"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 0}]}
        assert any("dur" in p for p in validate_chrome_trace(missing_dur))

    def test_expected_categories(self):
        doc = chrome_trace([("rep0", self._events())])
        assert validate_chrome_trace(doc, expect_cats=("core", "engine")) == []
        problems = validate_chrome_trace(doc, expect_cats=("storage",))
        assert any("storage" in p for p in problems)

    def test_file_roundtrip_and_jsonl(self, tmp_path):
        buffers = [("rep0", self._events())]
        path = tmp_path / "trace.json"
        write_chrome_trace(path, buffers)
        assert validate_trace_file(path, expect_cats=("core",)) == []
        jsonl = tmp_path / "events.jsonl"
        n = write_jsonl(jsonl, buffers)
        lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert len(lines) == n == len(buffers[0][1])
        assert lines[0]["buffer"] == "rep0"

    def test_validate_trace_file_unreadable(self, tmp_path):
        assert validate_trace_file(tmp_path / "absent.json") != []
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert validate_trace_file(bad) != []


class TestPrometheusText:
    def test_exposition_format(self):
        reg = MetricsRegistry()
        reg.inc("wal.appends", 3, wal="shore")
        reg.set_gauge("jobs", 2)
        reg.observe("wal.record_bytes", 40)
        text = prometheus_text(reg.snapshot())
        assert '# TYPE wal_appends_total counter' in text
        assert 'wal_appends_total{wal="shore"} 3' in text
        assert "# TYPE jobs gauge" in text
        assert 'wal_record_bytes_bucket{le="63"} 1' in text
        assert 'wal_record_bytes_bucket{le="+Inf"} 1' in text
        assert "wal_record_bytes_sum 40" in text
        assert "wal_record_bytes_count 1" in text

    def test_empty_snapshot(self):
        assert prometheus_text(MetricsRegistry().snapshot()) == ""


class TestTopDown:
    def test_zero_window_is_all_zero(self):
        td = topdown(PerfCounters(), CycleModel())
        assert td.as_dict() == {k: 0.0 for k in td.as_dict()}

    def test_level1_sums_to_one(self):
        c = PerfCounters(
            instructions=30_000,
            cycles=40_000,
            mispredicts=100,
            l1i_misses=200,
            l2i_misses=20,
            llci_misses=2,
            l1d_misses=150,
            l2d_misses=30,
            llcd_misses=10,
        )
        td = topdown(c, CycleModel())
        total = td.retiring + td.bad_speculation + td.frontend_bound + td.backend_bound
        assert total == pytest.approx(1.0)
        assert td.memory_bound + td.core_bound == pytest.approx(td.backend_bound)
        for value in td.as_dict().values():
            assert 0.0 <= value <= 1.0

    def test_ideal_loop_is_all_retiring(self):
        c = PerfCounters(instructions=30_000, cycles=10_000)
        td = topdown(c, CycleModel())
        assert td.retiring == pytest.approx(1.0)
        assert td.backend_bound == pytest.approx(0.0)

    def test_overshoot_rescaled_not_negative(self):
        # Degenerate counters (not produced by the cycle model): claimed
        # slots exceed elapsed cycles; the level-1 identity must survive.
        c = PerfCounters(instructions=60_000, cycles=10_000, l1i_misses=10_000)
        td = topdown(c, CycleModel())
        total = td.retiring + td.bad_speculation + td.frontend_bound + td.backend_bound
        assert total == pytest.approx(1.0)
        assert td.backend_bound >= 0.0

    def test_slots_priced_by_the_given_model(self):
        overlap = OverlapModel(l1d=0.1, l2d=0.2, llcd=0.9, llcd_serial=0.8, coherence=0.5)
        machine = Machine(overlap=overlap, tlb_mode="measured")
        trace = AccessTrace()
        trace.ifetch_run(4096, 300, module=0)
        for i in range(200):
            trace.load(10**8 + 4099 * i, 0, serial=i % 2 == 0)
        trace.store_run(5000, 50, 0)
        trace.retire(0, 20_000, branches=3000, mispredicts=40)
        c = machine.run_trace(trace)
        model = machine.cycle_model
        td = topdown(c, model)
        total = td.retiring + td.bad_speculation + td.frontend_bound + td.backend_bound
        assert total == pytest.approx(1.0)
        terms = model.stall_terms(c)
        assert c.dtlb_walks > 0 and terms.tlb == c.dtlb_walks * PAGE_WALK_CYCLES
        assert td.memory_bound == (terms.data + terms.coherence + terms.tlb) / c.cycles


def tiny_spec(**kw):
    from repro.bench.runner import RunSpec

    defaults = dict(system="shore-mt", measure_events=2000, warmup_events=500, repetitions=1)
    defaults.update(kw)
    return RunSpec(**defaults)


def fingerprint(result):
    return (
        result.system,
        result.counters.as_dict(),
        result.module_cycles,
        result.module_groups,
        result.measured_txns,
    )


class TestRunnerIntegration:
    def test_results_identical_with_and_without_obs(self):
        from repro.bench.parallel import workload_spec
        from repro.bench.runner import run_repetition

        spec = tiny_spec()
        w = workload_spec("micro", db_bytes=1 << 20)
        plain = run_repetition(spec, w, spec.rep_seed(0))
        with obs.using_obs(True):
            traced = run_repetition(spec, w, spec.rep_seed(0))
        assert fingerprint(plain) == fingerprint(traced)
        assert plain.obs_buffers == []
        assert len(traced.obs_buffers) == 1

    def test_spans_cover_engine_storage_core_harness(self):
        from repro.bench.parallel import workload_spec
        from repro.bench.runner import run_repetition

        spec = tiny_spec()
        with obs.using_obs(True):
            result = run_repetition(
                spec, workload_spec("micro", db_bytes=1 << 20), spec.rep_seed(0)
            )
        events = result.obs_buffers[0]
        cats = {e.cat for e in events}
        assert {"engine", "storage", "core", "harness"} <= cats
        names = {e.name for e in events}
        assert {"execute_txn", "replay", "repetition", "wal.append"} <= names
        assert result.obs_metrics["counters"]  # commits, wal appends, ...

    def test_setup_and_prewarm_spans_precede_repetition(self):
        from repro.bench.parallel import workload_spec
        from repro.bench.runner import run_repetition

        spec = tiny_spec()
        with obs.using_obs(True):
            result = run_repetition(
                spec, workload_spec("micro", db_bytes=1 << 20), spec.rep_seed(0)
            )
        harness = {e.name: e for e in result.obs_buffers[0] if e.track == "harness"}
        setup, prewarm, rep = harness["setup"], harness["prewarm"], harness["repetition"]
        assert setup.ts_us + setup.dur_us <= prewarm.ts_us
        assert prewarm.ts_us + prewarm.dur_us <= rep.ts_us

    def test_parallel_parity_with_obs_on(self):
        from repro.bench.parallel import CellTask, run_cells, workload_spec

        cells = [CellTask(tiny_spec(repetitions=2), workload_spec("micro", db_bytes=1 << 20))]
        serial_plain = run_cells(cells, jobs=1)[0]
        with obs.using_obs(True):
            serial_obs = run_cells(cells, jobs=1)[0]
            parallel_obs = run_cells(cells, jobs=2)[0]
        assert fingerprint(serial_plain) == fingerprint(serial_obs)
        assert fingerprint(serial_plain) == fingerprint(parallel_obs)
        # one buffer per repetition, merged in seed order, both paths
        assert len(serial_obs.obs_buffers) == 2
        assert len(parallel_obs.obs_buffers) == 2
        assert serial_obs.obs_metrics["counters"] == parallel_obs.obs_metrics["counters"]

    def test_buffers_export_to_valid_trace(self):
        from repro.bench.parallel import workload_spec
        from repro.bench.runner import run_repetition

        spec = tiny_spec()
        with obs.using_obs(True):
            result = run_repetition(
                spec, workload_spec("micro", db_bytes=1 << 20), spec.rep_seed(0)
            )
        doc = chrome_trace([("rep0", result.obs_buffers[0])])
        assert validate_chrome_trace(doc, expect_cats=("engine", "storage", "core")) == []


class TestEnginePhases:
    def test_compiled_engines_use_compile_phase(self):
        from repro.engines.registry import make_engine

        assert make_engine("hyper").begin_phase == "compile"
        assert make_engine("dbms-m").begin_phase == "compile"
        assert make_engine("voltdb").begin_phase == "plan_dispatch"
        assert make_engine("shore-mt").begin_phase == "parse_plan"
        assert make_engine("dbms-d").begin_phase == "parse_plan"


class TestChaosAnnotations:
    def test_injection_appears_as_instant_event(self):
        from repro.faults.chaos import ChaosRunner, ChaosSpec
        from repro.workloads.microbench import MicroBenchmark

        spec = ChaosSpec.quick("shore-mt", n_txns=40, n_crashes=1, seed=3)
        workload = MicroBenchmark(db_bytes=1 << 20, rows_per_txn=4, read_write=True)
        with obs.using_obs(True) as tracer:
            result = ChaosRunner(spec, workload).run()
            events = list(tracer.events)
        assert result.ok
        fault_events = [e for e in events if e.name.startswith("fault.")]
        assert len(fault_events) == len(result.crashes) >= 1
        assert all(e.phase == "i" for e in fault_events)
        names = {e.name for e in events}
        assert {"chaos.run", "chaos.recover", "recovery.replay"} <= names

    def test_chaos_digest_unchanged_by_tracing(self):
        from repro.faults.chaos import ChaosRunner, ChaosSpec
        from repro.workloads.microbench import MicroBenchmark

        def run():
            spec = ChaosSpec.quick("voltdb", n_txns=40, n_crashes=1, seed=5)
            workload = MicroBenchmark(db_bytes=1 << 20, rows_per_txn=4, read_write=True)
            return ChaosRunner(spec, workload).run().digest()

        plain = run()
        with obs.using_obs(True):
            traced = run()
        assert plain == traced


class TestCLI:
    def test_trace_subcommand_writes_valid_file(self, tmp_path, capsys):
        from repro.bench.cli import main
        from repro.obs.__main__ import main as validate_main

        out = tmp_path / "trace.json"
        assert main(["trace", "fig13", "--quick", "--out", str(out)]) == 0
        assert "layers:" in capsys.readouterr().out
        assert validate_main(["validate", str(out), "--expect-cats", "engine,core"]) == 0
        assert not obs.enabled()  # the CLI restores the ambient switch

    def test_trace_unknown_figure(self, capsys):
        from repro.bench.cli import main

        assert main(["trace", "nope", "--quick"]) == 2

    def test_top_subcommand_renders_attribution(self, capsys):
        from repro.bench.cli import main

        assert main(["top", "fig13", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "top-down attribution" in out
        assert "retiring" in out

    def test_obs_flag_keeps_figure_output_identical(self, capsys):
        from repro.bench.cli import main

        def figure_text(argv):
            assert main(argv) == 0
            out = capsys.readouterr().out
            # Drop the wall-clock line; it is timing, not results.
            return "\n".join(
                line for line in out.splitlines() if not line.startswith("[fig")
            )

        plain = figure_text(["fig13", "--quick"])
        traced = figure_text(["fig13", "--quick", "--obs"])
        traced_jobs = figure_text(["fig13", "--quick", "--obs", "--jobs", "2"])
        assert plain == traced == traced_jobs

    def test_validator_cli_rejects_bad_file(self, tmp_path, capsys):
        from repro.obs.__main__ import main as validate_main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "?"}]}))
        assert validate_main(["validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestPerfProvenance:
    def test_record_carries_provenance(self, tmp_path):
        from repro.bench.perf import provenance

        prov = provenance()
        assert prov["python"]
        assert isinstance(prov["cpu_count"], int) and prov["cpu_count"] >= 1
        assert prov["platform"]
        # inside this repo the SHA resolves; elsewhere None is allowed
        assert prov["git_sha"] is None or len(prov["git_sha"]) == 40


class TestReplayOverhead:
    def test_disabled_replay_checks_the_tracer_once_per_call(self, monkeypatch):
        """The disabled replay path stays one null-check: each
        Machine.run_trace asks obs.tracer() exactly once, however long
        the trace (a count, so host timing noise cannot fail it)."""
        from repro.core.machine import Machine
        from repro.core.trace import AccessTrace

        calls = []
        real_tracer = obs.tracer

        def counting_tracer():
            calls.append(None)
            return real_tracer()

        monkeypatch.setattr(obs, "tracer", counting_tracer)
        assert not obs.enabled()
        machine = Machine()
        for n_lines in (1, 64, 2000):
            trace = AccessTrace()
            trace.ifetch_run(4096, n_lines, module=0)
            for i in range(n_lines):
                trace.load((1 << 20) + 7 * i, module=0)
                trace.store((1 << 21) + i, module=1)
            trace.retire(0, 16 * n_lines, base_cycles=6.0 * n_lines)
            calls.clear()
            for _ in range(3):
                machine.run_trace(trace)
            assert len(calls) == 3, n_lines
