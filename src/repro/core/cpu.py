"""Out-of-order core timing model.

The paper reports stall cycles the simple way — ``misses x penalty``,
drawn side by side because components overlap on an out-of-order core —
but IPC comes from real elapsed cycles.  :class:`CycleModel` bridges the
two: it turns a counter delta into elapsed cycles using

``cycles = instructions * base_cpi
         + mispredicts * branch_penalty
         + sum(misses_at_level * penalty_at_level * overlap_factor)``

with per-source overlap factors.  Instruction-miss stalls expose their
full latency (the front end cannot run ahead of a missing fetch), and so
do data misses on a pointer-chasing dependence chain; independent data
misses overlap with other work and with each other, so only a fraction
of their latency shows up as elapsed time.  The defaults were calibrated
so a miss-free loop retires at the paper's measured ideal of 3 IPC and
the OLTP engines land in the paper's observed IPC bands.

:meth:`CycleModel.stall_terms` is the only place a miss count becomes
stall cycles; per-module attribution (``Machine.module_cycles``) and the
top-down slots (``repro.obs.topdown``) read the same terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.core.counters import PerfCounters
from repro.core.spec import IVY_BRIDGE, ServerSpec


@dataclass(frozen=True)
class OverlapModel:
    """Fraction of each stall source's raw latency that becomes elapsed time."""

    instr: float = 1.0
    l1d: float = 0.30
    l2d: float = 0.40
    llcd: float = 0.55
    llcd_serial: float = 1.0
    coherence: float = 1.0

    def __post_init__(self) -> None:
        for name in ("instr", "l1d", "l2d", "llcd", "llcd_serial", "coherence"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"overlap factor {name} must be in [0, 1], got {value}")


DEFAULT_OVERLAP = OverlapModel()


FRONTEND_REFILL_FACTOR = 1.6
"""Elapsed-cycle multiplier on instruction-miss stalls.

An instruction-cache miss stalls more than the raw fill latency: the
fetch bubble drains the decode queue and the front end restarts, so the
effective cost per L1I miss on Ivy Bridge exceeds the 8-cycle fill the
paper's breakdown charges.  Reported stall components keep the paper's
``misses x penalty`` convention; only elapsed cycles (IPC) see this.
"""

SERIAL_MISS_EXTRA_CYCLES = 220
"""Extra latency per pointer-chasing LLC miss beyond the Table 1 penalty.

A dependent random access into a 100 GB working set pays more than the
average DRAM penalty: the dTLB misses too (page-table walk) and the DRAM
row buffer is cold.  The paper's stall *breakdown* cannot show this —
its convention is ``misses x penalty`` — which is exactly why the
reported components never add up to the elapsed cycles (Section 3).
The cycle model charges it so compiled engines with tiny instruction
counts collapse to the paper's sub-0.5 IPC on LLC-resident-free data.
"""


PAGE_WALK_CYCLES = 140
"""Cycles per simulated dTLB page walk, charged in ``tlb_mode="measured"``
in place of :data:`SERIAL_MISS_EXTRA_CYCLES`."""


class StallTerms(NamedTuple):
    """The five overlap-adjusted stall terms of one counter block."""

    frontend: float
    data: float
    coherence: float
    branch: float
    tlb: float


class CycleModel:
    """Computes elapsed cycles for a block of retired work."""

    def __init__(
        self,
        spec: ServerSpec = IVY_BRIDGE,
        overlap: OverlapModel = DEFAULT_OVERLAP,
        *,
        serial_miss_extra_cycles: int = SERIAL_MISS_EXTRA_CYCLES,
        frontend_refill_factor: float = FRONTEND_REFILL_FACTOR,
        tlb_mode: str = "constant",
    ) -> None:
        if tlb_mode not in ("constant", "measured"):
            raise ValueError("tlb_mode must be 'constant' or 'measured'")
        self.spec = spec
        self.overlap = overlap
        self.serial_miss_extra_cycles = serial_miss_extra_cycles
        self.frontend_refill_factor = frontend_refill_factor
        # "constant": the calibrated per-serial-miss surcharge (default).
        # "measured": charge simulated dTLB page walks instead.
        self.tlb_mode = tlb_mode

    def stall_terms(self, delta: PerfCounters) -> StallTerms:
        """Overlap-adjusted stall cycles of *delta*, one term per source.

        The only place a miss count becomes stall cycles: elapsed
        cycles, per-module attribution and the top-down slots all read
        these terms.
        """
        spec = self.spec
        ov = self.overlap
        p1 = spec.l1i.miss_penalty_cycles
        p2 = spec.l2.miss_penalty_cycles
        p3 = spec.llc.miss_penalty_cycles
        # Hierarchical convention: an access that misses all the way charges
        # each level's penalty, so charging per-level misses is additive.
        frontend = (
            (delta.l1i_misses * p1 + delta.l2i_misses * p2 + delta.llci_misses * p3)
            * ov.instr
            * self.frontend_refill_factor
        )
        llcd_parallel = delta.llcd_misses - delta.llcd_serial_misses
        data = (
            delta.l1d_misses * p1 * ov.l1d
            + delta.l2d_misses * p2 * ov.l2d
            + llcd_parallel * p3 * ov.llcd
            + delta.llcd_serial_misses * p3 * ov.llcd_serial
        )
        coherence = delta.coherence_misses * p3 * ov.coherence
        branch = delta.mispredicts * spec.branch_misprediction_penalty
        if self.tlb_mode == "measured":
            tlb = delta.dtlb_walks * PAGE_WALK_CYCLES
        else:
            tlb = delta.llcd_serial_misses * self.serial_miss_extra_cycles
        return StallTerms(frontend, data, coherence, branch, tlb)

    def stall_cycles(self, delta: PerfCounters) -> float:
        """Effective (overlap-adjusted) memory + branch stall cycles."""
        frontend, data, coherence, branch, tlb = self.stall_terms(delta)
        return frontend + data + coherence + branch + tlb

    def cycles(self, delta: PerfCounters, base_cycles: float | None = None) -> int:
        """Total elapsed cycles for the work described by *delta*.

        *base_cycles* is the per-module-accounted no-miss time; when the
        trace did not account it, the server's ideal CPI applies (the
        miss-free-loop behaviour of Section 4.1.1).
        """
        base = base_cycles if base_cycles else delta.instructions * self.spec.base_cpi
        return max(1, int(round(base + self.stall_cycles(delta))))
