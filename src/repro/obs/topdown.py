"""TMAM-style top-down cycle attribution from a PerfCounters delta.

The paper reports a six-way *stall* breakdown (misses x penalty, which
deliberately over-counts because components overlap); the follow-up
OLAP study (Sirin & Ailamaki, VLDB 2020) instead uses Intel's top-down
method (TMAM), which partitions *elapsed* cycles into four level-1
slots that sum to one:

* **retiring** — cycles doing useful work, ``(instructions /
  ideal_ipc) / cycles``;
* **bad speculation** — branch-misprediction recovery;
* **frontend bound** — instruction-fetch starvation, the model's
  frontend stall term;
* **backend bound** — the remainder, split into **memory bound**
  (the data, coherence and TLB stall terms) and **core bound**.

The slots are priced by :meth:`~repro.core.cpu.CycleModel.stall_terms`
of the model that *produced* the elapsed cycles, so on this simulator
they are an accounting identity rather than an estimate, provided the
caller passes the run's own model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.counters import PerfCounters
from repro.core.cpu import CycleModel


@dataclass(frozen=True)
class TopDown:
    """Level-1 TMAM slots (fractions of elapsed cycles; sum to 1.0)."""

    retiring: float
    bad_speculation: float
    frontend_bound: float
    backend_bound: float
    # Level-2 split of backend_bound:
    memory_bound: float
    core_bound: float

    def as_dict(self) -> dict[str, float]:
        return {
            "retiring": self.retiring,
            "bad_speculation": self.bad_speculation,
            "frontend_bound": self.frontend_bound,
            "backend_bound": self.backend_bound,
            "memory_bound": self.memory_bound,
            "core_bound": self.core_bound,
        }


ZERO = TopDown(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def topdown(delta: PerfCounters, model: CycleModel) -> TopDown:
    """Attribute *delta*'s elapsed cycles to the four level-1 TMAM slots.

    *model* is the :class:`~repro.core.cpu.CycleModel` that priced
    *delta*'s cycles.
    """
    cycles = float(delta.cycles)
    if cycles <= 0:
        return ZERO

    terms = model.stall_terms(delta)
    retiring = min(1.0, (delta.instructions / model.spec.ideal_ipc) / cycles)
    bad_spec = terms.branch / cycles
    frontend = terms.frontend / cycles

    # The first three slots can overshoot 1.0 on degenerate windows
    # (e.g. counters not produced by the cycle model); rescale so the
    # level-1 identity holds and backend stays non-negative.
    used = retiring + bad_spec + frontend
    if used > 1.0:
        retiring, bad_spec, frontend = (x / used for x in (retiring, bad_spec, frontend))
        used = 1.0
    backend = 1.0 - used

    memory = min(backend, (terms.data + terms.coherence + terms.tlb) / cycles)
    core = backend - memory

    return TopDown(retiring, bad_spec, frontend, backend, memory, core)
