"""Multi-core cache hierarchy: private L1I/L1D/L2 per core, shared LLC.

The geometry and penalties come from a :class:`~repro.core.spec.ServerSpec`.
``access_instr`` / ``access_data`` are the per-access reference paths:
each returns the level that served one access as one of the
:data:`L1`/:data:`L2`/:data:`LLC`/:data:`MEMORY` constants, after the
textbook lookup cascade and inclusive fills.  Trace replay does not
call them: :meth:`~repro.core.machine.Machine.run_trace` probes the
same set dicts inline, and the tests hold it to these paths.

Coherence is modelled MESI-lite, and only when more than one core is
instantiated (:meth:`MemoryHierarchy.snoop`, the one coherence path
both replay and ``access_data`` call): a store invalidates the line in
other cores' private caches, and a load of a line another core has
modified is flagged as a coherence transfer (served at LLC latency,
counted separately).  The LLC is modelled non-inclusive: evicting an
LLC line does not back-invalidate the private caches — a
simplification that does not affect the paper's metrics because the
working sets that thrash the LLC dwarf the private caches.
"""

from __future__ import annotations

from repro.core.cache import SetAssociativeCache
from repro.core.spec import IVY_BRIDGE, ServerSpec
from repro.core.tlb import DataTLB, IVY_BRIDGE_DTLB, TLBSpec

L1 = 1
L2 = 2
LLC = 3
MEMORY = 4

LEVEL_NAMES = {L1: "L1", L2: "L2", LLC: "LLC", MEMORY: "MEM"}


class CorePrivateCaches:
    """The L1I, L1D and unified L2 belonging to one core."""

    def __init__(self, spec: ServerSpec) -> None:
        self.l1i = SetAssociativeCache(spec.l1i)
        self.l1d = SetAssociativeCache(spec.l1d)
        self.l2 = SetAssociativeCache(spec.l2)

    def flush(self) -> None:
        self.l1i.flush()
        self.l1d.flush()
        self.l2.flush()


class MemoryHierarchy:
    """Private caches for *n_cores* cores plus one shared LLC."""

    def __init__(
        self,
        spec: ServerSpec = IVY_BRIDGE,
        n_cores: int = 1,
        *,
        tlb_spec: TLBSpec = IVY_BRIDGE_DTLB,
    ) -> None:
        if not 1 <= n_cores <= spec.n_cores:
            raise ValueError(f"n_cores must be in [1, {spec.n_cores}], got {n_cores}")
        self.spec = spec
        self.n_cores = n_cores
        self.cores = [CorePrivateCaches(spec) for _ in range(n_cores)]
        self.tlbs = [DataTLB(tlb_spec) for _ in range(n_cores)]
        self.llc = SetAssociativeCache(spec.llc)
        self._coherent = n_cores > 1
        # line -> core id that last wrote it (modified state), multi-core only
        self._modified_by: dict[int, int] = {}
        self.coherence_transfers = 0

    # -- access paths ------------------------------------------------------

    def access_instr(self, core_id: int, line: int) -> int:
        """Instruction fetch of *line* by *core_id*; returns serving level."""
        core = self.cores[core_id]
        if core.l1i.lookup(line):
            return L1
        if core.l2.lookup(line):
            core.l1i.fill(line)
            return L2
        if self.llc.lookup(line):
            core.l2.fill(line)
            core.l1i.fill(line)
            return LLC
        core.l2.fill(line)
        core.l1i.fill(line)
        return MEMORY

    def access_data(self, core_id: int, line: int, write: bool) -> tuple[int, bool]:
        """Data access of *line*; returns (serving level, coherence flag).

        The coherence flag is True when the line had to be pulled out of
        another core's modified copy.
        """
        core = self.cores[core_id]
        self.tlbs[core_id].translate(line)
        transfer = self._coherent and self.snoop(core_id, line, write)
        if core.l1d.lookup(line):
            return L1, transfer
        if core.l2.lookup(line):
            core.l1d.fill(line)
            return L2, transfer
        if self.llc.lookup(line):
            core.l2.fill(line)
            core.l1d.fill(line)
            return LLC, transfer
        core.l2.fill(line)
        core.l1d.fill(line)
        return MEMORY, transfer

    def snoop(self, core_id: int, line: int, write: bool) -> bool:
        """Coherence actions for *core_id* touching *line*, before its lookup.

        If another core holds the line modified, its private copies are
        snooped out, the writeback lands in the LLC and *core_id*'s own
        private copies are dropped, so the lookup that follows is served
        from the LLC; returns True for that transfer.  A write then
        invalidates every other core's private copies and records
        *core_id* as the owner.  That write-invalidate touches only
        other cores' private caches, which the local lookup never
        reads, so running it before the lookup instead of after is
        exact.  Called only when more than one core is instantiated.
        """
        cores = self.cores
        modified_by = self._modified_by
        owner = modified_by.get(line)
        transfer = owner is not None and owner != core_id
        if transfer:
            remote = cores[owner]
            remote.l1d.invalidate(line)
            remote.l2.invalidate(line)
            del modified_by[line]
            self.coherence_transfers += 1
            self.llc.fill(line)
            core = cores[core_id]
            core.l1d.invalidate(line)
            core.l2.invalidate(line)
        if write:
            for cid, other in enumerate(cores):
                if cid != core_id:
                    other.l1d.invalidate(line)
                    other.l2.invalidate(line)
            modified_by[line] = core_id
        return transfer

    # -- maintenance -------------------------------------------------------

    def flush(self) -> None:
        """Cold-start every cache (used between experiment repetitions)."""
        for core in self.cores:
            core.flush()
        for tlb in self.tlbs:
            tlb.flush()
        self.llc.flush()
        self._modified_by.clear()
        self.coherence_transfers = 0

    def resident_lines(self) -> int:
        total = self.llc.resident_lines()
        for core in self.cores:
            total += core.l1i.resident_lines() + core.l1d.resident_lines() + core.l2.resident_lines()
        return total
