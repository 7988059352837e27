"""repro.load.resilience — chaos-under-load and graceful degradation.

The contract under test: every chaos sweep is a pure function of
(seed, spec).  The hypothesis sweep at the bottom drives the whole
stack — window scheduling, fault firing, retries, shedding, breaker —
across (seed, fault kind, backend, ack mode) and asserts the rendered
saturation table and the degraded-mode verdicts are byte-identical
serial vs ``--jobs 2`` and sanitized vs plain.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults import BROWNOUT, COORDINATOR_CRASH, CRASH, NET_PARTITION
from repro.util import sanitizer
from repro.load.arrivals import ArrivalSpec
from repro.load.driver import LoadSpec, run_load
from repro.load.report import render_load_report, render_saturation_curve
from repro.load.resilience import (
    CHAOS_SUITES,
    ChaosLoadSpec,
    ResilienceSpec,
    _Breaker,
    chaos_suite,
    schedule_windows,
)


class TestChaosLoadSpec:
    def test_suite_builder_round_trips_every_suite(self):
        for name, kinds in CHAOS_SUITES.items():
            spec = chaos_suite(name)
            assert spec.suite == name and spec.kinds == kinds

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="unknown chaos suite"):
            chaos_suite("earthquake")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kinds=()),
            dict(kinds=("no-such-kind",)),
            dict(windows_per_kind=0),
            dict(window_frac=0.0),
            dict(window_frac=0.6),
            dict(brownout_factor=0.5),
            dict(slow_slots=0),
            dict(recovery_base_us=-1.0),
            dict(blowup_threshold=1.0),
            dict(recovery_frac=0.0),
        ],
    )
    def test_bad_spec_raises(self, kwargs):
        with pytest.raises(ValueError):
            ChaosLoadSpec(**kwargs)

    @pytest.mark.parametrize(
        "suite, shards, replicas, servers",
        [
            ("partition", 0, 0, 1),  # needs replicas
            ("partition", 2, 2, 1),  # not with shards
            ("coordinator-crash", 0, 0, 1),  # needs shards
            ("prepare-stall", 0, 2, 1),  # needs shards
            ("crash", 2, 0, 1),  # sharded crash = coordinator-crash
            ("slow-shard", 0, 0, 1),  # needs servers >= 2
        ],
    )
    def test_backend_mismatch_raises(self, suite, shards, replicas, servers):
        with pytest.raises(ValueError):
            chaos_suite(suite).validate_backend(shards, replicas, servers)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(timeout_ms=-1.0),
            dict(max_retries=-1),
            dict(backoff_base_ms=0),
            dict(backoff_cap_ms=0),
            dict(shed_depth=-1),
            dict(breaker_threshold=-1),
            dict(breaker_open_ms=0.0),
        ],
    )
    def test_bad_resilience_raises(self, kwargs):
        with pytest.raises(ValueError):
            ResilienceSpec(**kwargs)


class TestWindowScheduling:
    HORIZON = 10_000_000  # 10ms in virtual ns

    def test_pure_function_of_seed(self):
        a = schedule_windows(chaos_suite("mixed"), 7, "x1", self.HORIZON)
        b = schedule_windows(chaos_suite("mixed"), 7, "x1", self.HORIZON)
        assert a == b

    def test_seed_moves_windows(self):
        a = schedule_windows(chaos_suite("brownout"), 7, "x1", self.HORIZON)
        b = schedule_windows(chaos_suite("brownout"), 8, "x1", self.HORIZON)
        assert a != b

    def test_adding_a_kind_never_shifts_existing_windows(self):
        # The per-kind child-stream idiom: mixed's crash windows are
        # byte-equal to the crash-only suite's at the same seed.
        crash_only = schedule_windows(chaos_suite("crash"), 7, "x1", self.HORIZON)
        mixed = schedule_windows(chaos_suite("mixed"), 7, "x1", self.HORIZON)
        assert [w for w in mixed if w.kind == CRASH] == list(crash_only)

    def test_windows_land_inside_their_segments(self):
        chaos = chaos_suite("brownout", windows_per_kind=3)
        windows = schedule_windows(chaos, 7, "x1", self.HORIZON)
        assert len(windows) == 3
        segment = self.HORIZON // 3
        for i, w in enumerate(sorted(windows, key=lambda w: w.start_ns)):
            assert i * segment <= w.start_ns < (i + 1) * segment
            assert w.end_ns <= self.HORIZON
            assert w.end_ns > w.start_ns


class TestBreaker:
    def test_opens_after_threshold_and_rejects(self):
        b = _Breaker(threshold=2, open_ns=1000)
        b.fold(10, False, False)
        b.fold(20, False, False)
        assert b.state == "open" and b.opens == 1
        assert b.admit(500) == (False, False)

    def test_half_open_single_probe_then_closes(self):
        b = _Breaker(threshold=1, open_ns=1000)
        b.fold(0, False, False)
        assert b.admit(1000) == (True, True)  # the probe
        assert b.admit(1001) == (False, False)  # only one probe at a time
        b.fold(1100, True, True)
        assert b.state == "closed"
        assert b.admit(1200) == (True, False)

    def test_failed_probe_reopens(self):
        b = _Breaker(threshold=1, open_ns=1000)
        b.fold(0, False, False)
        assert b.admit(1000) == (True, True)
        b.fold(1100, False, True)
        assert b.state == "open" and b.opens == 2

    def test_success_resets_consecutive_count(self):
        b = _Breaker(threshold=2, open_ns=1000)
        b.fold(10, False, False)
        b.fold(20, True, False)
        b.fold(30, False, False)
        assert b.state == "closed"


def _sweep(seed: int, suite: str, *, shards=0, replicas=0, ack="quorum",
           servers=1, resilience=None, n_events=30, multipliers=(0.5,)):
    return LoadSpec(
        arrival=ArrivalSpec(n_clients=200, n_events=n_events),
        seed=seed,
        shards=shards,
        replicas=replicas,
        ack=ack,
        servers=servers,
        multipliers=multipliers,
        chaos=chaos_suite(suite),
        resilience=resilience
        or ResilienceSpec(timeout_ms=5.0, max_retries=2, shed_depth=64,
                          breaker_threshold=8),
    )


class TestReplayBehavior:
    def test_crash_fires_and_recovers(self):
        result = run_load(_sweep(7, "crash"), jobs=1)
        c = result.points[0].chaos
        assert c.crashes == 1
        assert c.window_digest != 0
        assert not c.problems  # recovered state verified clean
        assert {v.name for v in c.verdicts} == {
            "bounded-p999-blowup",
            "recovers-within-n-ticks",
            "no-acked-loss-under-load",
        }

    def test_shedding_fires_under_overload(self):
        spec = _sweep(
            7, "brownout",
            resilience=ResilienceSpec(shed_depth=2),
            multipliers=(4.0,),
        )
        point = run_load(spec, jobs=1).points[0]
        c = point.chaos
        assert c.shed > 0
        # Every request settles exactly once with retries off: shed and
        # aborted requests fail, the rest succeed.
        assert c.succeeded + c.failed == point.n_events

    def test_timeout_abandons_queued_requests(self):
        spec = _sweep(
            7, "brownout",
            resilience=ResilienceSpec(timeout_ms=0.001),
            multipliers=(4.0,),
        )
        c = run_load(spec, jobs=1).points[0].chaos
        assert c.timeouts > 0

    def test_retry_recovers_goodput_after_crash(self):
        no_retry = _sweep(7, "crash", resilience=ResilienceSpec())
        with_retry = _sweep(7, "crash", resilience=ResilienceSpec(max_retries=3))
        c0 = run_load(no_retry, jobs=1).points[0].chaos
        c1 = run_load(with_retry, jobs=1).points[0].chaos
        assert c0.failed >= 1  # the crash victim is lost without retry
        assert c1.failed == 0 and c1.retries >= 1
        assert c1.succeeded > c0.succeeded

    def test_classic_sweep_untouched(self):
        spec = LoadSpec(
            arrival=ArrivalSpec(n_clients=200, n_events=30),
            seed=7, multipliers=(0.5,),
        )
        result = run_load(spec, jobs=1)
        assert result.points[0].chaos is None
        out = render_load_report(result)
        assert "chaos" not in out and "goodtps" not in out


# (suite, shards, replicas, ack) combinations the hypothesis sweep mixes
# with seeds; each exercises a different fault path through the stack.
_SWEEP_BACKENDS = [
    ("crash", 0, 0, "quorum"),
    ("crash", 0, 2, "quorum"),
    ("crash", 0, 2, "sync-one"),
    ("partition", 0, 2, "quorum"),
    ("coordinator-crash", 2, 0, "async"),
    ("prepare-stall", 2, 0, "async"),
    ("brownout", 0, 0, "quorum"),
]


class TestDeterminismSweep:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        backend=st.sampled_from(_SWEEP_BACKENDS),
    )
    def test_serial_parallel_sanitized_byte_parity(self, seed, backend):
        suite, shards, replicas, ack = backend
        spec = _sweep(seed, suite, shards=shards, replicas=replicas, ack=ack,
                      n_events=24)
        serial = run_load(spec, jobs=1)
        parallel = run_load(spec, jobs=2)
        with sanitizer.sanitizing():
            sanitized = run_load(spec, jobs=1)
            violations = sanitizer.violations()
        table = render_saturation_curve(serial)
        assert table == render_saturation_curve(parallel)
        assert table == render_saturation_curve(sanitized)
        verdicts = [p.chaos.verdict_map() for p in serial.points]
        assert verdicts == [p.chaos.verdict_map() for p in parallel.points]
        assert verdicts == [p.chaos.verdict_map() for p in sanitized.points]
        assert serial.points == parallel.points == sanitized.points
        assert not violations, violations[:3]
