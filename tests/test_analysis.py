"""Analysis-extension tests: breakdowns, hardware sweeps, skew."""

from dataclasses import replace

import pytest

from repro.analysis import (
    profile_modules,
    render_breakdown,
    render_skew,
    render_sweep,
    sweep_core_width,
    sweep_l1i_size,
    sweep_llc_size,
    sweep_skew,
    SkewedMicroBenchmark,
)
from repro.bench.runner import RunSpec, measure_window, run_repetition
from repro.core.machine import Machine
from repro.core.profiler import Profiler
from repro.workloads.microbench import MicroBenchmark


def micro_factory():
    return MicroBenchmark(db_bytes=100 << 30)


def quick_spec(system="dbms-d") -> RunSpec:
    return RunSpec(system=system).quick()


class TestModuleBreakdown:
    @pytest.fixture(scope="class")
    def profiles(self):
        return profile_modules(quick_spec("dbms-d"), micro_factory)

    def test_covers_all_touched_modules(self, profiles):
        names = {p.name for p in profiles}
        assert "parser" in names
        assert "btree" in names

    def test_sorted_by_cycles(self, profiles):
        cycles = [p.cycles for p in profiles]
        assert cycles == sorted(cycles, reverse=True)

    def test_groups_assigned(self, profiles):
        assert {p.group for p in profiles} >= {"engine", "other"}

    def test_misses_accumulated(self, profiles):
        assert sum(p.l1i_misses for p in profiles) > 0
        assert sum(p.llcd_misses for p in profiles) > 0
        assert sum(p.instructions for p in profiles) > 0

    def test_render(self, profiles):
        text = render_breakdown(profiles)
        assert "inside the OLTP engine" in text
        assert "parser" in text


class TestModuleBreakdownHardware:
    def test_prices_the_hardware_of_its_spec(self):
        # A breakdown explains a figure cell, so it must split that
        # cell's measure window: same machine (the TLB mode and the
        # serial-miss surcharge move the cycles), same budgets, same
        # seed, hence the very cycles run_repetition reports.
        default = RunSpec(system="hyper").quick()
        tuned = replace(default, tlb_mode="measured", serial_miss_extra_cycles=300)

        def repetition_cycles(spec):
            one_worker = replace(spec, n_cores=1)
            return run_repetition(one_worker, micro_factory, spec.seed).module_cycles

        tuned_cycles = repetition_cycles(tuned)
        breakdown = {p.name: p.cycles for p in profile_modules(tuned, micro_factory)}
        assert breakdown == tuned_cycles
        assert tuned_cycles != repetition_cycles(default)


def window_and_traces(spec, monkeypatch):
    """The cell's measure window and how many traces were replayed in it."""
    replayed = [0, 0]  # all replays, replays before the window opened
    run_trace, start_window = Machine.run_trace, Profiler.start_window

    def counting_run_trace(self, *args, **kwargs):
        replayed[0] += 1
        return run_trace(self, *args, **kwargs)

    def marking_start_window(self):
        replayed[1] = replayed[0]
        start_window(self)

    monkeypatch.setattr(Machine, "run_trace", counting_run_trace)
    monkeypatch.setattr(Profiler, "start_window", marking_start_window)
    _, window, _ = measure_window(spec, micro_factory, spec.seed)
    return window, replayed[0] - replayed[1]


class TestModuleAttributionAddsUp:
    """Module rows are priced by the cycle model that prices the window."""

    @pytest.mark.parametrize("tlb_mode", ["constant", "measured"])
    def test_modules_plus_branch_stalls_are_the_window(self, tlb_mode, monkeypatch):
        spec = RunSpec(system="hyper", tlb_mode=tlb_mode).quick()
        window, traces = window_and_traces(spec, monkeypatch)
        counters = window.counters()
        branch = counters.mispredicts * spec.server.branch_misprediction_penalty
        attributed = sum(window.module_cycles.values()) + branch
        # Each trace's cycles are rounded to an int; the rows are not.
        assert abs(attributed - counters.cycles) <= 0.5 * traces

    def test_measured_mode_ignores_the_serial_surcharge(self, monkeypatch):
        spec = RunSpec(system="hyper", tlb_mode="measured").quick()
        windows = [
            window_and_traces(replace(spec, serial_miss_extra_cycles=extra), monkeypatch)[0]
            for extra in (None, 0)
        ]
        assert windows[0].module_cycles == windows[1].module_cycles


class TestHardwareSweeps:
    def test_bigger_l1i_fewer_instruction_stalls(self):
        points = sweep_l1i_size(quick_spec("dbms-d"), micro_factory, sizes_kb=(32, 256))
        assert points[1].l1i_stalls_per_ki < 0.5 * points[0].l1i_stalls_per_ki
        assert points[1].ipc > points[0].ipc

    def test_llc_growth_barely_helps_at_100gb(self):
        """Section 8: megabytes of LLC never hold gigabytes of data."""
        points = sweep_llc_size(quick_spec("hyper"), micro_factory, sizes_mb=(20, 80))
        assert points[1].ipc < points[0].ipc * 1.3

    def test_narrow_core_loses_little(self):
        points = sweep_core_width(
            quick_spec("shore-mt"), micro_factory, ideal_ipcs=(1.5, 3.0)
        )
        narrow, wide = points[0], points[1]
        assert narrow.ipc > 0.6 * wide.ipc  # half the width, small loss

    def test_render(self):
        points = sweep_l1i_size(quick_spec("voltdb"), micro_factory, sizes_kb=(32,))
        text = render_sweep("sweep", points)
        assert "L1I=32KB" in text


class TestSkewExtension:
    def test_workload_generates_in_range(self):
        import random

        wl = SkewedMicroBenchmark(db_bytes=1 << 20, theta=0.9)
        rng = random.Random(0)
        keys = []

        class Spy:
            def read(self, table, key):
                keys.append(key)
                return (key, 0)

        for _ in range(100):
            _, body = wl.next_transaction(rng)
            body(Spy())
        assert all(0 <= k < wl.n_rows for k in keys)

    def test_skew_recovers_ipc(self):
        points = sweep_skew("hyper", thetas=(0.0, 0.95), quick=True)
        uniform, skewed = points[0], points[1]
        assert skewed.ipc > uniform.ipc
        assert skewed.llcd_stalls_per_ki < uniform.llcd_stalls_per_ki

    def test_render(self):
        points = sweep_skew("hyper", thetas=(0.0,), quick=True)
        assert "theta" in render_skew(points)
