"""Data-TLB model tests."""

import pytest

from repro.core.machine import M_DTLB_WALKS, Machine
from repro.core.tlb import DataTLB, HUGE_PAGE_DTLB, IVY_BRIDGE_DTLB, TLBSpec
from repro.core.trace import AccessTrace
from tests.conftest import TINY_SERVER


class TestSpec:
    def test_ivy_bridge_geometry(self):
        assert IVY_BRIDGE_DTLB.l1_entries == 64
        assert IVY_BRIDGE_DTLB.stlb_entries == 512
        assert IVY_BRIDGE_DTLB.page_bytes == 4096
        assert IVY_BRIDGE_DTLB.lines_per_page == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            TLBSpec(page_bytes=100)
        with pytest.raises(ValueError):
            TLBSpec(l1_entries=63)


class TestTranslation:
    def test_first_touch_walks_then_hits(self):
        tlb = DataTLB()
        line = 1 << 20
        assert tlb.translate(line) is True
        assert tlb.translate(line) is False
        assert tlb.translate(line + 1) is False  # same page
        assert tlb.walks == 1

    def test_same_page_lines_share_translation(self):
        tlb = DataTLB()
        tlb.translate(0)
        assert all(not tlb.translate(i) for i in range(1, 64))
        assert tlb.translate(64) is True  # next page

    def test_reach_exceeded_causes_walks(self):
        tlb = DataTLB()
        # Touch far more pages than L1+STLB can map, twice.
        pages = range(0, 4096 * 64, 64)
        for line in pages:
            tlb.translate(line)
        walks_first = tlb.walks
        for line in pages:
            tlb.translate(line)
        assert tlb.walks >= walks_first * 1.9  # cyclic LRU thrash

    def test_within_reach_no_steady_walks(self):
        tlb = DataTLB()
        pages = range(0, 32 * 64, 64)  # 32 pages: fits the L1 dTLB
        for line in pages:
            tlb.translate(line)
        before = tlb.walks
        for _ in range(5):
            for line in pages:
                tlb.translate(line)
        assert tlb.walks == before

    def test_huge_pages_extend_reach(self):
        small = DataTLB(IVY_BRIDGE_DTLB)
        huge = DataTLB(HUGE_PAGE_DTLB)
        # 100 MB of 4KB-page-spread accesses, twice.
        lines = range(0, (100 << 20) // 64, 997)
        for _ in range(2):
            for line in lines:
                small.translate(line)
                huge.translate(line)
        assert huge.walk_ratio < small.walk_ratio * 0.2

    def test_flush(self):
        tlb = DataTLB()
        tlb.translate(0)
        tlb.flush()
        assert tlb.walks == 0
        assert tlb.translate(0) is True


class TestMachineIntegration:
    def test_walks_counted_per_trace(self):
        machine = Machine(TINY_SERVER)
        t = AccessTrace()
        for i in range(200):
            t.load((1 << 22) + i * 64, 0, serial=True)  # one line per page
        t.retire(0, 1000)
        delta = machine.run_trace(t)
        assert delta.dtlb_walks > 100

    def test_measured_mode_charges_walks(self):
        constant = Machine(TINY_SERVER)
        measured = Machine(TINY_SERVER, tlb_mode="measured")
        t = AccessTrace()
        for i in range(300):
            t.load((1 << 22) + i * 64 * 64, 0, serial=True)
        t.retire(0, 1000)
        d_const = constant.run_trace(t)
        d_meas = measured.run_trace(t)
        assert d_meas.dtlb_walks == d_const.dtlb_walks
        assert d_meas.cycles != d_const.cycles  # different charging model

    def test_walks_attributed_per_module(self):
        machine = Machine(TINY_SERVER)
        t = AccessTrace()
        for i in range(200):
            t.load((1 << 22) + i * 64, i % 3, serial=True)
        t.retire(0, 1000)
        delta = machine.run_trace(t)
        walks = [row[M_DTLB_WALKS] for row in machine.module_stats.values()]
        assert len(walks) == 3 and min(walks) > 0
        assert sum(walks) == delta.dtlb_walks

    def test_invalid_tlb_mode(self):
        with pytest.raises(ValueError):
            Machine(TINY_SERVER, tlb_mode="bogus")
