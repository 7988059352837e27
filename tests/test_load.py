"""Open-loop load driver tests: arrivals, scenarios, driver, reporting.

The load driver's whole value is its determinism contract — a timeline
is a pure function of ``(seed, tag, spec, mix, n_rows)`` — so most of
these are property tests: same seed must mean byte-identical timelines
regardless of client count representation or ``--jobs`` width, Zipf
mixes must concentrate mass on hot keys, think times must never be
negative, and offered load beyond capacity must saturate instead of
reporting impossible throughput.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.report import render_latency_percentiles
from repro.load import (
    ARRIVAL_PROCESSES,
    ArrivalSpec,
    LoadSpec,
    MIXES,
    build_timeline,
    run_load,
    timeline_digest,
)
from repro.load.driver import probe_capacity, run_load_point
from repro.load.report import (
    load_record,
    per_op_rows,
    render_load_report,
    saturation_rows,
)
from repro.load.scenarios import INSERT, Mix, choose_op, pick_key
from repro.obs import Histogram, nearest_rank
from repro.util.rng import child_rng

MIX = MIXES["read-write"]
N_ROWS = 2000


def tiny_arrival(**kw) -> ArrivalSpec:
    base = dict(n_clients=1000, rate=1000.0, n_events=150)
    base.update(kw)
    return ArrivalSpec(**base)


class TestArrivalSpec:
    def test_rejects_unknown_process(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            ArrivalSpec(process="uniform")

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="rate"):
            ArrivalSpec(rate=0.0)

    def test_cohorts_partition_clients_exactly(self):
        spec = tiny_arrival(n_clients=1_000_003, n_streams=32)
        cohorts = [spec.cohort(s) for s in range(spec.streams())]
        assert sum(size for _, size in cohorts) == spec.n_clients
        # Contiguous, non-overlapping client id ranges.
        edge = 0
        for lo, size in cohorts:
            assert lo == edge
            edge = lo + size

    def test_streams_never_exceed_clients(self):
        assert tiny_arrival(n_clients=5, n_streams=32).streams() == 5

    def test_mean_rate_preserved_by_shaping(self):
        # The off-phase rate compensates the burst/flash peak so the
        # integral of the multiplier over the horizon stays ~1.
        for process in ("burst", "flash"):
            spec = tiny_arrival(process=process)
            horizon = spec.horizon_s()
            n = 10_000
            mean = (
                sum(
                    spec.multiplier_at((i + 0.5) * horizon / n, horizon)
                    for i in range(n)
                )
                / n
            )
            assert mean == pytest.approx(1.0, rel=0.05), process


class TestTimelineDeterminism:
    def test_same_seed_same_timeline(self):
        a = build_timeline(tiny_arrival(), MIX, N_ROWS, 7)
        b = build_timeline(tiny_arrival(), MIX, N_ROWS, 7)
        assert a == b
        assert timeline_digest(a) == timeline_digest(b)

    def test_different_seed_different_timeline(self):
        a = build_timeline(tiny_arrival(), MIX, N_ROWS, 7)
        b = build_timeline(tiny_arrival(), MIX, N_ROWS, 8)
        assert timeline_digest(a) != timeline_digest(b)

    def test_tag_namespaces_streams(self):
        a = build_timeline(tiny_arrival(), MIX, N_ROWS, 7, tag="x1")
        b = build_timeline(tiny_arrival(), MIX, N_ROWS, 7, tag="x2")
        assert timeline_digest(a) != timeline_digest(b)

    def test_timeline_is_time_ordered_and_capped(self):
        spec = tiny_arrival(n_events=80)
        events = build_timeline(spec, MIX, N_ROWS, 3)
        assert len(events) <= 80
        keys = [(e.t_ns, e.stream, e.seq) for e in events]
        assert keys == sorted(keys)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        process=st.sampled_from(ARRIVAL_PROCESSES),
        n_clients=st.sampled_from([1, 50, 1000, 1_000_000]),
    )
    def test_pure_function_of_seed(self, seed, process, n_clients):
        spec = tiny_arrival(process=process, n_clients=n_clients, n_events=60)
        a = build_timeline(spec, MIX, N_ROWS, seed)
        b = build_timeline(spec, MIX, N_ROWS, seed)
        assert a == b

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_client_count_scales_without_rng_blowup(self, seed):
        """A million clients must cost the same streams as a thousand:
        the cohort representation, not per-client state."""
        small = tiny_arrival(n_clients=1000, n_events=60)
        huge = tiny_arrival(n_clients=1_000_000, n_events=60)
        a = build_timeline(small, MIX, N_ROWS, seed)
        b = build_timeline(huge, MIX, N_ROWS, seed)
        # Same stream structure (32 cohorts), same event count regime.
        assert {e.stream for e in a} <= set(range(32))
        assert {e.stream for e in b} <= set(range(32))
        assert all(0 <= e.client < 1_000_000 for e in b)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        process=st.sampled_from(ARRIVAL_PROCESSES),
    )
    def test_think_times_non_negative(self, seed, process):
        spec = tiny_arrival(process=process, think_ms=2.0, n_events=80)
        for event in build_timeline(spec, MIX, N_ROWS, seed):
            assert event.think_ns >= 0
            assert event.t_ns >= event.think_ns  # arrival includes think

    def test_zero_think_time_means_zero(self):
        for event in build_timeline(tiny_arrival(), MIX, N_ROWS, 5):
            assert event.think_ns == 0


class TestScenarios:
    def test_known_mixes(self):
        assert set(MIXES) == {
            "read-only", "read-write", "write-only", "incremental-write",
        }

    def test_mix_validation(self):
        with pytest.raises(ValueError, match="unknown operation"):
            Mix("bad", (("scan", 1.0),))
        with pytest.raises(ValueError, match="theta"):
            Mix("bad", (("read", 1.0),), theta=1.5)

    def test_choose_op_respects_weights(self):
        mix = MIXES["read-write"]
        ops = [choose_op(mix, u / 1000) for u in range(1000)]
        reads = ops.count("read")
        assert 750 <= reads <= 850  # 80% nominal
        assert choose_op(mix, 0.999999) in ("read", "update")

    def test_read_only_is_read_only(self):
        events = build_timeline(tiny_arrival(), MIXES["read-only"], N_ROWS, 11)
        assert {e.op for e in events} == {"read"}

    def test_incremental_write_marks_keys_for_driver(self):
        events = build_timeline(
            tiny_arrival(), MIXES["incremental-write"], N_ROWS, 11
        )
        assert events
        assert all(e.op == INSERT and e.key == -1 for e in events)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_zipf_mass_concentration(self, seed):
        """theta=0.8 over 2000 keys: the hottest 1% of the keyspace must
        draw far more than its uniform share of accesses."""
        rng = child_rng(seed, "zipf-mass")
        n = 2000
        draws = [pick_key(rng, n, 0.8) for _ in range(4000)]
        assert all(0 <= k < n for k in draws)
        hot = sum(1 for k in draws if k < n // 100)
        assert hot / len(draws) > 0.10  # uniform share would be 1%

    def test_theta_zero_is_uniform(self):
        rng = child_rng(1, "uniform-keys")
        draws = [pick_key(rng, 1000, 0.0) for _ in range(3000)]
        hot = sum(1 for k in draws if k < 10)
        assert hot / len(draws) < 0.05


class TestNearestRank:
    def test_percentiles_are_actual_samples(self):
        samples = list(range(1, 101))
        assert nearest_rank(samples, 50) == 50
        assert nearest_rank(samples, 99) == 99
        assert nearest_rank(samples, 99.9) == 100
        assert nearest_rank(samples, 100) == 100
        assert nearest_rank(samples, 0) == 1

    def test_no_float_rank_creep(self):
        # ceil(0.99 * 100) in binary floats is 100, not 99 — the integer
        # basis-point arithmetic must not inherit that.
        assert nearest_rank(list(range(100)), 99) == 98

    def test_merge_order_independent(self):
        a = [5, 1, 9, 3]
        b = [2, 8, 4, 7]
        assert nearest_rank(a + b, 99) == nearest_rank(b + a, 99)
        assert nearest_rank(a + b, 50) == nearest_rank(sorted(a + b), 50)

    def test_errors(self):
        with pytest.raises(ValueError):
            nearest_rank([], 50)
        with pytest.raises(ValueError):
            nearest_rank([1], 101)

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=400),
        q=st.sampled_from([0.0, 50.0, 99.0, 99.9, 100.0]),
    )
    def test_result_is_a_sample_and_order_free(self, values, q):
        result = nearest_rank(values, q)
        assert result in values
        assert result == nearest_rank(list(reversed(values)), q)

    def test_histogram_quantile_agrees_conservatively(self):
        hist = Histogram()
        samples = [3, 17, 120, 4096, 70000]
        for s in samples:
            hist.observe(s)
        for q in (50.0, 99.0, 99.9):
            exact = nearest_rank(samples, q)
            assert hist.quantile(q) >= exact  # bucket edge upper-bounds
            assert hist.quantile(q) < exact * 2 + 1  # same log2 bucket

    def test_histogram_quantile_empty(self):
        with pytest.raises(ValueError):
            Histogram().quantile(50)

    def test_render_latency_percentiles_deterministic(self):
        samples = [1500, 900, 120000, 3200] * 10
        assert render_latency_percentiles(samples) == render_latency_percentiles(
            list(reversed(samples))
        )
        assert "p999=" in render_latency_percentiles(samples)


def quick_spec(**kw) -> LoadSpec:
    base = dict(
        system="hyper",
        arrival=ArrivalSpec(n_clients=1000, n_events=100),
        multipliers=(0.5, 4.0),
        seed=7,
    )
    base.update(kw)
    return LoadSpec(**base)


class TestLoadSpec:
    def test_rejects_unknown_mix(self):
        with pytest.raises(ValueError, match="unknown mix"):
            quick_spec(mix="scan-heavy")

    def test_rejects_bad_remote_pct(self):
        with pytest.raises(ValueError, match="remote_pct"):
            quick_spec(remote_pct=150.0)

    def test_rejects_bad_multipliers(self):
        with pytest.raises(ValueError, match="multipliers"):
            quick_spec(multipliers=(1.0, -2.0))

    def test_rejects_unknown_system_without_rewriting_aliases(self):
        with pytest.raises(ValueError, match="unknown system 'nope'"):
            quick_spec(system="nope")
        assert quick_spec(system="HyPer").system == "HyPer"


class TestDriver:
    def test_queueing_separated_from_service(self):
        point = run_load_point(quick_spec(), 4.0, 2_000_000.0)
        assert point.n_events > 0
        assert len(point.queueing_ns) == point.n_events
        assert all(q >= 0 for q in point.queueing_ns)
        assert all(s > 0 for s in point.service_ns)
        lat = point.latencies_ns
        assert all(
            l == q + s for l, q, s in zip(lat, point.queueing_ns, point.service_ns)
        )

    def test_saturation_overload_does_not_exceed_capacity(self):
        """The monotonicity smoke: past saturation, achieved throughput
        must plateau — offering 8x more must not report ~8x more."""
        result = run_load(quick_spec(multipliers=(0.5, 2.0, 8.0)))
        by_mult = {p.multiplier: p for p in result.points}
        sat = by_mult[2.0].achieved_tps
        deep = by_mult[8.0].achieved_tps
        assert deep <= sat * 1.10  # plateau, not scaling with offered
        assert deep < by_mult[8.0].offered_tps * 0.60
        # And the plateau is backed by a stretched makespan, not fudge.
        assert by_mult[8.0].makespan_ns > by_mult[8.0].horizon_ns

    def test_under_load_tracks_offered(self):
        result = run_load(quick_spec(multipliers=(0.25,)))
        point = result.points[0]
        assert point.achieved_tps <= point.offered_tps * 1.01
        assert point.achieved_tps > point.offered_tps * 0.5

    def test_incremental_write_grows_table(self):
        result = run_load(
            quick_spec(mix="incremental-write", multipliers=(1.0,))
        )
        point = result.points[0]
        assert point.committed > 0
        assert point.aborted == 0

    def test_fault_rate_injects_aborts(self):
        # Injected TXN_BODY aborts are retried like any abort, so only a
        # high per-attempt rate exhausts the retry budget visibly.
        result = run_load(
            quick_spec(fault_rate=0.9, multipliers=(1.0,))
        )
        point = result.points[0]
        assert point.aborted > 0
        assert point.committed > 0  # not everything dies

    def test_replicated_backend_charges_fabric_ticks(self):
        spec = quick_spec(
            system="shore-mt",
            mix="read-only",
            replicas=2,
            ack="quorum",
            arrival=ArrivalSpec(n_clients=200, n_events=25),
            multipliers=(1.0,),
        )
        result = run_load(spec)
        point = result.points[0]
        assert point.committed > 0
        # Quorum acks round-trip the fabric: service must dwarf the
        # plain engine's sub-microsecond times.
        assert point.mean_service_ns() > 50_000

    def test_sharded_backend_runs_2pc(self):
        spec = quick_spec(
            system="shore-mt",
            shards=2,
            remote_pct=30.0,
            arrival=ArrivalSpec(n_clients=200, n_events=20),
            multipliers=(1.0,),
        )
        result = run_load(spec)
        assert result.points[0].committed > 0

    def test_capacity_probe_deterministic(self):
        assert probe_capacity(quick_spec()) == probe_capacity(quick_spec())


class TestLoadReport:
    def test_report_has_percentiles_and_curve(self):
        result = run_load(quick_spec())
        text = render_load_report(result)
        assert "p50=" in text and "p99=" in text and "p999=" in text
        assert "saturation curve" in text
        assert "offered" in text and "achieved" in text

    def test_record_roundtrip(self):
        result = run_load(quick_spec(multipliers=(1.0,)))
        record = load_record(result)
        assert record["points"] == saturation_rows(result)
        assert record["spec"]["clients"] == 1000

    def test_per_op_breakdown_partitions_latencies(self):
        point = run_load(quick_spec(multipliers=(1.0,))).points[0]
        assert len(point.ops) == len(point.latencies_ns)
        by_op = point.latencies_by_op()
        assert set(by_op) <= {"read", "update", "insert"}
        assert len(by_op) > 1  # read-write mix exercises two ops
        assert sum(len(v) for v in by_op.values()) == point.n_events
        # Partition, not a resample: the multiset of latencies is intact.
        merged = sorted(lat for v in by_op.values() for lat in v)
        assert merged == sorted(point.latencies_ns)

    def test_per_op_rows_in_record(self):
        result = run_load(quick_spec(multipliers=(1.0,)))
        rows = saturation_rows(result)
        by_op = rows[0]["by_op"]
        assert set(by_op) == set(result.points[0].latencies_by_op())
        for row in by_op.values():
            assert row["count"] > 0
            assert row["p50_us"] <= row["p99_us"] <= row["p999_us"]
        assert per_op_rows(result.points[0]) == by_op

    def test_per_op_lines_rendered(self):
        result = run_load(quick_spec(multipliers=(1.0,)))
        text = render_load_report(result)
        for op in result.points[0].latencies_by_op():
            assert f"    {op}" in text or f"    {op} " in text

    def test_sharded_ops_use_procedure_names(self):
        spec = quick_spec(
            system="shore-mt",
            shards=2,
            remote_pct=30.0,
            arrival=ArrivalSpec(n_clients=200, n_events=20),
            multipliers=(1.0,),
        )
        point = run_load(spec).points[0]
        # The sharded backend drives its own distributed TPC-C mix; ops
        # carry the cluster's procedure names, not the timeline's labels.
        assert set(point.latencies_by_op()) <= {
            "new_order", "payment", "stock_level"
        }

    def test_per_op_split_is_deterministic(self):
        spec = quick_spec(multipliers=(1.0,))
        a = run_load(spec, jobs=1).points[0]
        b = run_load(spec, jobs=2).points[0]
        assert a.ops == b.ops
        assert a.latencies_by_op() == b.latencies_by_op()

    def test_report_carries_no_wall_clock(self):
        # The stdout report must be byte-diffable across runs: anything
        # timestamp-shaped lives only in the stored load record.
        result = run_load(quick_spec(multipliers=(1.0,)))
        text = render_load_report(result)
        record = load_record(result)
        assert record["timestamp"] not in text
        assert record["timestamp"][:10] not in text


class TestCliValidation:
    """`repro-bench load` / `chaos` reject nonsense with exit code 2
    (argparse's usage-error convention), never a traceback."""

    def _exit_code(self, argv):
        from repro.bench.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        return excinfo.value.code

    @pytest.mark.parametrize(
        "argv",
        [
            ["load", "--clients", "0"],
            ["load", "--rate", "-1"],
            ["load", "--arrival", "tsunami"],
            ["load", "--mix", "no-such-mix"],
            ["load", "--servers", "0"],
            ["load", "--fault-rate", "1.5"],
            ["load", "--multipliers", "0"],
            ["chaos", "--shards", "0"],
            ["chaos", "--shards", "2", "--remote-pct", "150"],
            ["chaos", "--shards", "2", "--remote-pct", "-5"],
            ["chaos", "--replicas", "-1"],
            ["chaos", "--seeds", "0"],
            ["load", "--chaos", "no-such-suite"],
            ["load", "--chaos", "brownout", "--chaos-windows", "0"],
            ["load", "--chaos", "partition"],  # needs --replicas >= 1
            ["load", "--chaos", "coordinator-crash"],  # needs --shards >= 1
            ["load", "--chaos", "crash", "--shards", "2"],
            ["load", "--retry", "-1"],
            ["load", "--timeout-ms", "-1"],
            ["load", "--shed", "-1"],
            ["load", "--breaker", "-1"],
            ["chaos", "--seeds", "2"],  # --seeds needs --shards
            ["chaos", "--shards", "2", "--systems", "shore-mt", "hyper"],
            ["chaos", "--shards", "2", "--workloads", "micro"],
            ["chaos", "--shards", "2", "--quick"],
            ["load", "--system", "nope"],
            ["chaos", "--systems", "nope"],
            ["chaos", "--workloads", "nope"],
            ["table1", "--jobs", "-1"],
            ["validate", "--jobs", "-1"],
            ["load", "--events", "0"],
            ["load", "--streams", "0"],
            ["load", "--think-ms", "-1"],
        ],
    )
    def test_bad_arguments_exit_2(self, argv, capsys):
        assert self._exit_code(argv) == 2
        assert "usage" in capsys.readouterr().err

    def test_good_arguments_do_not_trip_validation(self, capsys, monkeypatch, tmp_path):
        from repro.bench.cli import main

        monkeypatch.chdir(tmp_path)  # any stored run lands in a sandbox
        code = main(
            ["load", "--clients", "100", "--events", "40",
             "--multipliers", "1", "--no-save"]
        )
        assert code == 0
        assert "saturation curve" in capsys.readouterr().out
