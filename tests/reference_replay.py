"""Per-line reference replay: the plain form of ``Machine.run_trace``.

Every line of a trace goes through ``MemoryHierarchy.access_instr`` or
``access_data``, one call per line (batched ``IFETCH_RUN`` events are
expanded by ``AccessTrace.events``), and the miss tallies are summed one
by one.  ``Machine.run_trace`` probes the set dicts inline and batches
the stats, so it must leave a machine in exactly the state this does;
:func:`machine_state` is what "exactly" covers.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.core.counters import PerfCounters
from repro.core.hierarchy import L1, MEMORY
from repro.core.machine import (
    M_BASE_CYCLES,
    M_COHER,
    M_D_L1M,
    M_D_L2M,
    M_D_LLCM,
    M_D_SERIAL_LLCM,
    M_DACCESSES,
    M_DTLB_WALKS,
    M_IF_L1M,
    M_IF_L2M,
    M_IF_LLCM,
    M_IFETCHES,
    M_INSTR,
    _MODULE_FIELDS,
    Machine,
)
from repro.core.trace import DLOAD_SERIAL, DSTORE, IFETCH, AccessTrace

# The counter and module-row column a miss at L1, L2 and LLC bumps.
_INSTR_MISSES = (("l1i_misses", M_IF_L1M), ("l2i_misses", M_IF_L2M), ("llci_misses", M_IF_LLCM))
_DATA_MISSES = (("l1d_misses", M_D_L1M), ("l2d_misses", M_D_L2M), ("llcd_misses", M_D_LLCM))


def reference_run_trace(
    machine: Machine, trace: AccessTrace, core_id: int = 0, *, transactions: int = 1
) -> PerfCounters:
    """Replay *trace* on *machine* one hierarchy call per line."""
    hierarchy = machine.hierarchy
    tlb = hierarchy.tlbs[core_id]
    walks_before = tlb.walks
    delta = PerfCounters(
        instructions=trace.instructions,
        branches=trace.branches,
        mispredicts=trace.mispredicts,
        transactions=transactions,
    )
    for kind, line, mod in trace.events():
        row = machine.module_stats.setdefault(mod, [0] * _MODULE_FIELDS)
        if kind == IFETCH:
            level = hierarchy.access_instr(core_id, line)
            delta.ifetches += 1
            row[M_IFETCHES] += 1
            misses = _INSTR_MISSES
        else:
            write = kind == DSTORE
            if write:
                delta.stores += 1
            else:
                delta.loads += 1
            row[M_DACCESSES] += 1
            walks = tlb.walks
            level, transfer = hierarchy.access_data(core_id, line, write)
            row[M_DTLB_WALKS] += tlb.walks - walks
            if transfer:
                delta.coherence_misses += 1
                row[M_COHER] += 1
            if kind == DLOAD_SERIAL and level == MEMORY:
                delta.llcd_serial_misses += 1
                row[M_D_SERIAL_LLCM] += 1
            misses = _DATA_MISSES
        # Served from L2 is an L1 miss; from LLC, L1 and L2; from memory, all three.
        for name, col in misses[: level - L1]:
            setattr(delta, name, getattr(delta, name) + 1)
            row[col] += 1
    delta.dtlb_walks = tlb.walks - walks_before
    delta.cycles = machine.cycle_model.cycles(delta, trace.base_cycles)
    for mod, instrs in trace.instr_by_module.items():
        row = machine.module_stats.setdefault(mod, [0] * _MODULE_FIELDS)
        row[M_INSTR] += instrs
        row[M_BASE_CYCLES] += trace.base_by_module.get(mod, instrs * machine.spec.base_cpi)
    machine.counters[core_id].add(delta)
    return delta


def machine_state(machine: Machine) -> dict:
    """Everything replay changes: counters, module rows, every cache's
    sets in LRU order and stats, the dTLB arrays and tallies, and the
    coherence state."""
    hierarchy = machine.hierarchy
    caches = {"llc": hierarchy.llc}
    for cid, core in enumerate(hierarchy.cores):
        caches.update({f"l1i{cid}": core.l1i, f"l1d{cid}": core.l1d, f"l2{cid}": core.l2})
    return {
        "counters": [c.as_dict() for c in machine.counters],
        "module_stats": machine.module_stats,
        "caches": {
            name: ([list(s.items()) for s in c._sets], asdict(c.stats))
            for name, c in caches.items()
        },
        "tlbs": [
            (
                [list(s) for s in tlb._l1._sets],
                [list(s) for s in tlb._stlb._sets],
                tlb.accesses,
                tlb.l1_misses,
                tlb.walks,
            )
            for tlb in hierarchy.tlbs
        ],
        "modified_by": list(hierarchy._modified_by.items()),
        "coherence_transfers": hierarchy.coherence_transfers,
    }


def copy_trace(trace: AccessTrace) -> AccessTrace:
    """An independent copy (engines clear and refill one trace object)."""
    copy = AccessTrace()
    for name in AccessTrace.__slots__:
        value = getattr(trace, name)
        setattr(copy, name, value.copy() if isinstance(value, (list, dict)) else value)
    return copy
