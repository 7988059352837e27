"""The VTune stand-in: measurement windows over a running machine.

The paper attaches VTune to the server process, lets the benchmark warm
up, then reports counters from the middle of the run, filtered to the
worker thread(s), averaged over three repetitions.  :class:`Profiler`
reproduces that workflow for the simulated machine:

* :meth:`start_window` / :meth:`end_window` carve a counter window out
  of an ongoing run (warm-up transactions executed before the window
  simply never enter it);
* windows are per-core filtered — core ids play the role of worker
  threads, and background activity can be excluded the way the paper
  filters VTune results to the identified worker thread;
* module attribution snapshots let a window report where cycles went at
  code-module granularity (Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.counters import PerfCounters
from repro.core.machine import Machine


@dataclass
class ProfileWindow:
    """Counters and module attribution accumulated inside one window.

    ``module_rows`` holds each module's counter-row delta over the
    window (indexed like :attr:`Machine.module_stats` rows);
    ``module_cycles`` the cycles the machine's model attributes to them.
    """

    per_core: list[PerfCounters]
    module_cycles: dict[int, float] = field(default_factory=dict)
    module_rows: dict[int, list[int]] = field(default_factory=dict)

    def counters(self, cores: list[int] | None = None) -> PerfCounters:
        """Aggregate counters over *cores* (all cores when None)."""
        total = PerfCounters()
        ids = range(len(self.per_core)) if cores is None else cores
        for cid in ids:
            total.add(self.per_core[cid])
        return total

    def mean_core_counters(self, cores: list[int] | None = None) -> PerfCounters:
        """Per-worker average, the paper's multi-threaded reporting mode."""
        ids = list(range(len(self.per_core))) if cores is None else list(cores)
        total = self.counters(ids)
        return total.scaled(1.0 / len(ids)) if ids else total


class Profiler:
    """Carves measurement windows out of a machine's execution."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self._start: list[PerfCounters] | None = None
        self._start_modules: dict[int, list[int]] | None = None

    @property
    def attached(self) -> bool:
        return self._start is not None

    def start_window(self) -> None:
        if self._start is not None:
            raise RuntimeError("profiler window already open")
        self._start = [c.snapshot() for c in self.machine.counters]
        self._start_modules = self.machine.snapshot_module_stats()

    def end_window(self) -> ProfileWindow:
        if self._start is None or self._start_modules is None:
            raise RuntimeError("no profiler window open")
        per_core = [
            cur.delta(start) for cur, start in zip(self.machine.counters, self._start)
        ]
        module_rows, module_cycles = self._module_delta(self._start_modules)
        self._start = None
        self._start_modules = None
        return ProfileWindow(
            per_core=per_core, module_cycles=module_cycles, module_rows=module_rows
        )

    def _module_delta(
        self, start: dict[int, list[int]]
    ) -> tuple[dict[int, list[int]], dict[int, float]]:
        """Module counter rows and cycles attributable to the window only."""
        delta_rows: dict[int, list[int]] = {}
        for mod, row in self.machine.module_stats.items():
            base = start.get(mod)
            delta_rows[mod] = list(row) if base is None else [a - b for a, b in zip(row, base)]
        return delta_rows, self.machine.module_cycles(delta_rows)
