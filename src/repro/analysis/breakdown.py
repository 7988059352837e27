"""Component-level miss breakdown (the paper's [28] methodology).

Tözün et al. "OLTP in Wonderland" break cache misses down into the code
modules of the OLTP stack; the paper uses the same idea for its
Figure 7.  This module exposes it as a first-class analysis: run a
workload on a system and report, per code module, the instructions
retired, the instruction/data misses it caused and the cycles
attributed to it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.bench.runner import RunSpec, measure_window
from repro.core.machine import (
    M_D_L1M,
    M_D_LLCM,
    M_IF_L1M,
    M_IF_LLCM,
    M_INSTR,
)


@dataclass(frozen=True)
class ModuleProfile:
    """One code module's share of a profiled run."""

    name: str
    group: str
    instructions: int
    l1i_misses: int
    llci_misses: int
    l1d_misses: int
    llcd_misses: int
    cycles: float

    def cycles_share(self, total: float) -> float:
        return self.cycles / total if total else 0.0


def profile_modules(spec: RunSpec, workload_factory) -> list[ModuleProfile]:
    """Split one cell's measure window into per-module rows, hottest first.

    The window is the one :func:`~repro.bench.runner.run_repetition`
    measures for the cell's first worker (``n_cores=1``) at
    ``spec.seed``, so the rows' cycles sum to that repetition's.
    """
    engine, window, _ = measure_window(
        replace(spec, n_cores=1), workload_factory, spec.seed
    )
    layout = engine.layout
    profiles = [
        ModuleProfile(
            name=layout.name_of(mod),
            group=layout.group_of(mod),
            instructions=int(row[M_INSTR]),
            l1i_misses=int(row[M_IF_L1M]),
            llci_misses=int(row[M_IF_LLCM]),
            l1d_misses=int(row[M_D_L1M]),
            llcd_misses=int(row[M_D_LLCM]),
            cycles=window.module_cycles.get(mod, 0.0),
        )
        for mod, row in window.module_rows.items()
    ]
    profiles.sort(key=lambda p: -p.cycles)
    return profiles


def render_breakdown(profiles: list[ModuleProfile]) -> str:
    """Aligned text table of a module profile."""
    total = sum(p.cycles for p in profiles)
    name_w = max(len(p.name) for p in profiles) + 1
    lines = [
        f"{'module':<{name_w}}{'group':<8}{'cycles%':>8}{'instr':>10}"
        f"{'L1I-m':>8}{'LLCI-m':>8}{'L1D-m':>8}{'LLCD-m':>8}"
    ]
    for p in profiles:
        lines.append(
            f"{p.name:<{name_w}}{p.group:<8}{100 * p.cycles_share(total):>7.1f}%"
            f"{p.instructions:>10}{p.l1i_misses:>8}{p.llci_misses:>8}"
            f"{p.l1d_misses:>8}{p.llcd_misses:>8}"
        )
    engine_share = sum(p.cycles for p in profiles if p.group == "engine")
    lines.append(f"inside the OLTP engine: {100 * engine_share / total:.1f}%" if total else "")
    return "\n".join(lines)
