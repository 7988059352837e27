"""Data-TLB model: the mechanism behind the serial-miss surcharge.

The cycle model charges a calibrated constant per pointer-chasing LLC
miss (``SERIAL_MISS_EXTRA_CYCLES``) for the dTLB walk + cold DRAM row a
random access into a 100 GB working set pays.  This module provides the
*mechanistic* version: a two-level data TLB (Ivy Bridge: 64-entry L1
dTLB, 512-entry unified STLB, 4 KB pages) simulated over every data
access.  The hierarchy counts the resulting page walks, per core and
per code module; with ``tlb_mode="measured"`` the cycle model charges
each walk ``PAGE_WALK_CYCLES`` (:mod:`repro.core.cpu`) instead of the
constant.  A :class:`TLBSpec` is geometry only: the walk cost is the
same for every page size.  The ablation test
(`tests/test_ablations.py`) shows the two modes agree — and what 2 MB
huge pages would buy, a hardware/software co-design lever in the spirit
of the paper's Section 8.

Instruction pages are not modelled: the engines' code footprints span
at most a few hundred pages, well within the 128-entry iTLB.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.spec import CACHE_LINE_BYTES


@dataclass(frozen=True)
class TLBSpec:
    """Geometry of a two-level data TLB."""

    name: str = "IvyBridge-dTLB"
    l1_entries: int = 64
    l1_associativity: int = 4
    stlb_entries: int = 512
    stlb_associativity: int = 4
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.page_bytes % CACHE_LINE_BYTES:
            raise ValueError("page size must be a multiple of the cache-line size")
        if self.l1_entries % self.l1_associativity:
            raise ValueError("L1 TLB entries must divide into sets")
        if self.stlb_entries % self.stlb_associativity:
            raise ValueError("STLB entries must divide into sets")

    @property
    def lines_per_page(self) -> int:
        return self.page_bytes // CACHE_LINE_BYTES


IVY_BRIDGE_DTLB = TLBSpec()
HUGE_PAGE_DTLB = TLBSpec(
    name="IvyBridge-dTLB-2MB",
    l1_entries=32,
    l1_associativity=4,
    stlb_entries=512,
    page_bytes=2 << 20,
)


class _LRUArray:
    """Set-associative LRU translation array over page numbers."""

    __slots__ = ("n_sets", "assoc", "_sets")

    def __init__(self, entries: int, associativity: int) -> None:
        self.n_sets = entries // associativity
        self.assoc = associativity
        self._sets: list[dict[int, None]] = [{} for _ in range(self.n_sets)]

    def access(self, page: int) -> bool:
        s = self._sets[page % self.n_sets]
        if s.pop(page, 0) is None:
            s[page] = None
            return True
        if len(s) >= self.assoc:
            s.pop(next(iter(s)))
        s[page] = None
        return False

    def flush(self) -> None:
        for s in self._sets:
            s.clear()


class DataTLB:
    """Two-level dTLB; :meth:`translate` returns True on a page walk."""

    def __init__(self, spec: TLBSpec = IVY_BRIDGE_DTLB) -> None:
        self.spec = spec
        self._l1 = _LRUArray(spec.l1_entries, spec.l1_associativity)
        self._stlb = _LRUArray(spec.stlb_entries, spec.stlb_associativity)
        self._page_shift = spec.lines_per_page.bit_length() - 1
        self.accesses = 0
        self.l1_misses = 0
        self.walks = 0

    def translate(self, line_addr: int) -> bool:
        """Translate a line address; True when a page walk was needed."""
        page = line_addr >> self._page_shift
        self.accesses += 1
        if self._l1.access(page):
            return False
        self.l1_misses += 1
        if self._stlb.access(page):
            return False
        self.walks += 1
        return True

    @property
    def walk_ratio(self) -> float:
        return self.walks / self.accesses if self.accesses else 0.0

    def flush(self) -> None:
        self._l1.flush()
        self._stlb.flush()
        self.accesses = 0
        self.l1_misses = 0
        self.walks = 0
