"""Cycle-model tests: ideal IPC, overlap factors, stall accounting."""

import pytest

from repro.core.counters import PerfCounters
from repro.core.cpu import (
    CycleModel,
    DEFAULT_OVERLAP,
    FRONTEND_REFILL_FACTOR,
    OverlapModel,
    PAGE_WALK_CYCLES,
    SERIAL_MISS_EXTRA_CYCLES,
)
from repro.core.spec import IVY_BRIDGE


class TestOverlapModel:
    def test_defaults_valid(self):
        assert DEFAULT_OVERLAP.instr == 1.0
        assert 0 < DEFAULT_OVERLAP.l1d <= 1
        assert DEFAULT_OVERLAP.llcd_serial == 1.0

    @pytest.mark.parametrize("field", ["instr", "l1d", "l2d", "llcd", "llcd_serial", "coherence"])
    def test_out_of_range_rejected(self, field):
        with pytest.raises(ValueError):
            OverlapModel(**{field: 1.5})
        with pytest.raises(ValueError):
            OverlapModel(**{field: -0.1})


class TestIdealLoop:
    def test_miss_free_loop_retires_at_ideal_ipc(self):
        """Section 4.1.1: a loop with no misses measures IPC = 3."""
        model = CycleModel(IVY_BRIDGE)
        delta = PerfCounters(instructions=30_000)
        cycles = model.cycles(delta)
        assert delta.instructions / cycles == pytest.approx(3.0, rel=0.01)

    def test_explicit_base_cycles_override_ideal(self):
        model = CycleModel(IVY_BRIDGE)
        delta = PerfCounters(instructions=1000)
        cycles = model.cycles(delta, base_cycles=500.0)
        assert cycles == 500


class TestStallAccounting:
    def test_instruction_stalls_full_latency_with_frontend_factor(self):
        model = CycleModel(IVY_BRIDGE)
        delta = PerfCounters(l1i_misses=10)
        assert model.stall_cycles(delta) == pytest.approx(10 * 8 * FRONTEND_REFILL_FACTOR)

    def test_hierarchical_charging_is_additive(self):
        model = CycleModel(IVY_BRIDGE)
        delta = PerfCounters(l1i_misses=1, l2i_misses=1, llci_misses=1)
        assert model.stall_cycles(delta) == pytest.approx((8 + 19 + 167) * FRONTEND_REFILL_FACTOR)

    def test_parallel_data_misses_overlap(self):
        model = CycleModel(IVY_BRIDGE)
        delta = PerfCounters(llcd_misses=10)  # none serial
        assert model.stall_cycles(delta) == pytest.approx(10 * 167 * DEFAULT_OVERLAP.llcd)

    def test_serial_misses_expose_full_latency_plus_walk(self):
        model = CycleModel(IVY_BRIDGE)
        delta = PerfCounters(llcd_misses=10, llcd_serial_misses=10)
        expected = 10 * (167 + SERIAL_MISS_EXTRA_CYCLES)
        assert model.stall_cycles(delta) == pytest.approx(expected)

    def test_serial_subset_split(self):
        model = CycleModel(IVY_BRIDGE)
        delta = PerfCounters(llcd_misses=10, llcd_serial_misses=4)
        expected = (
            6 * 167 * DEFAULT_OVERLAP.llcd
            + 4 * (167 + SERIAL_MISS_EXTRA_CYCLES)
        )
        assert model.stall_cycles(delta) == pytest.approx(expected)

    def test_branch_mispredict_penalty(self):
        model = CycleModel(IVY_BRIDGE)
        delta = PerfCounters(mispredicts=10)
        assert model.stall_cycles(delta) == pytest.approx(10 * IVY_BRIDGE.branch_misprediction_penalty)

    def test_coherence_charged_at_llc_penalty(self):
        model = CycleModel(IVY_BRIDGE)
        delta = PerfCounters(coherence_misses=3)
        assert model.stall_cycles(delta) == pytest.approx(3 * 167)

    def test_cycles_at_least_one(self):
        model = CycleModel(IVY_BRIDGE)
        assert model.cycles(PerfCounters()) == 1

    def test_custom_knobs(self):
        model = CycleModel(IVY_BRIDGE, serial_miss_extra_cycles=0, frontend_refill_factor=1.0)
        delta = PerfCounters(l1i_misses=1, llcd_misses=1, llcd_serial_misses=1)
        assert model.stall_cycles(delta) == pytest.approx(8 + 167)

    def test_stall_cycles_sum_the_terms(self):
        delta = PerfCounters(
            l1i_misses=7, l2i_misses=3, llci_misses=1, l1d_misses=9, l2d_misses=4,
            llcd_misses=3, llcd_serial_misses=2, coherence_misses=1, mispredicts=5,
            dtlb_walks=6,
        )
        for mode, tlb in (
            ("constant", 2 * SERIAL_MISS_EXTRA_CYCLES),
            ("measured", 6 * PAGE_WALK_CYCLES),
        ):
            model = CycleModel(IVY_BRIDGE, tlb_mode=mode)
            terms = model.stall_terms(delta)
            assert model.stall_cycles(delta) == sum(terms)
            assert terms.branch == 5 * IVY_BRIDGE.branch_misprediction_penalty
            assert terms.tlb == tlb
