"""Access traces: the stream an engine hands to the simulated machine.

A trace is the flattened sequence of cache-line touches one transaction
makes, plus scalar execution metadata (instructions retired, branches)
accumulated per code module.  Engines build one trace per transaction
and the :class:`~repro.core.machine.Machine` replays it against the
cache hierarchy, so cache state carries over between transactions the
way it does on real hardware.

Event kinds are small ints so the hot loop stays cheap:

* ``IFETCH`` — instruction-line fetch,
* ``IFETCH_RUN`` — a run of consecutive instruction-line fetches kept
  as one batched event (``addrs`` holds ``(start_line, n_lines)``);
  the machine's replay loop probes the whole run in one inner loop
  instead of dispatching *n_lines* events — the replay fast path,
* ``DLOAD`` — data load whose latency the out-of-order core can overlap
  with other work (independent load),
* ``DLOAD_SERIAL`` — data load on a dependence chain (pointer chasing
  through an index); its full miss latency is exposed,
* ``DSTORE`` — data store (write-allocate).
"""

from __future__ import annotations

IFETCH = 0
DLOAD = 1
DSTORE = 2
DLOAD_SERIAL = 3
IFETCH_RUN = 4

KIND_NAMES = {
    IFETCH: "ifetch",
    DLOAD: "dload",
    DSTORE: "dstore",
    DLOAD_SERIAL: "dload_serial",
    IFETCH_RUN: "ifetch_run",
}


class AccessTrace:
    """Append-only per-transaction access stream.

    The three parallel lists (``kinds``, ``addrs``, ``mods``) hold one
    entry per *event*.  Most events are single cache-line touches; an
    ``IFETCH_RUN`` event covers a whole run of consecutive instruction
    lines and stores ``(start_line, n_lines)`` in its ``addrs`` slot.
    ``len(trace)`` always counts cache-line touches, not events.
    ``instructions``/``branches``/``mispredicts`` are accumulated per
    module id as dense dicts.
    """

    __slots__ = (
        "kinds", "addrs", "mods", "instr_by_module", "base_by_module",
        "branches", "mispredicts", "_run_extra",
    )

    def __init__(self) -> None:
        self.kinds: list[int] = []
        self.addrs: list = []
        self.mods: list[int] = []
        self.instr_by_module: dict[int, int] = {}
        self.base_by_module: dict[int, float] = {}
        self.branches: int = 0
        self.mispredicts: int = 0
        # Line touches beyond one per event (from IFETCH_RUN batching).
        self._run_extra: int = 0

    # -- appending ---------------------------------------------------------

    def ifetch(self, line_addr: int, module: int) -> None:
        self.kinds.append(IFETCH)
        self.addrs.append(line_addr)
        self.mods.append(module)

    def ifetch_run(self, start_line: int, n_lines: int, module: int) -> None:
        """Fetch *n_lines* consecutive instruction lines starting at *start_line*.

        Recorded as one batched event; the machine replays the whole run
        in one inner loop.
        """
        if n_lines <= 1:
            if n_lines == 1:
                self.ifetch(start_line, module)
            return
        self.kinds.append(IFETCH_RUN)
        self.addrs.append((start_line, n_lines))
        self.mods.append(module)
        self._run_extra += n_lines - 1

    def load(self, line_addr: int, module: int, *, serial: bool = False) -> None:
        self.kinds.append(DLOAD_SERIAL if serial else DLOAD)
        self.addrs.append(line_addr)
        self.mods.append(module)

    def load_chain(self, lines: list[int], module: int) -> None:
        """Load *lines* in order, each on the previous one's dependence
        chain (an index probe's pointer chase): one serial load per line."""
        n_lines = len(lines)
        self.kinds.extend([DLOAD_SERIAL] * n_lines)
        self.addrs.extend(lines)
        self.mods.extend([module] * n_lines)

    def load_run(self, start_line: int, n_lines: int, module: int) -> None:
        """Load *n_lines* consecutive data lines (e.g. a scan or big-node search)."""
        self.kinds.extend([DLOAD] * n_lines)
        self.addrs.extend(range(start_line, start_line + n_lines))
        self.mods.extend([module] * n_lines)

    def store(self, line_addr: int, module: int) -> None:
        self.kinds.append(DSTORE)
        self.addrs.append(line_addr)
        self.mods.append(module)

    def store_run(self, start_line: int, n_lines: int, module: int) -> None:
        self.kinds.extend([DSTORE] * n_lines)
        self.addrs.extend(range(start_line, start_line + n_lines))
        self.mods.extend([module] * n_lines)

    def retire(
        self,
        module: int,
        instructions: int,
        branches: int = 0,
        mispredicts: int = 0,
        base_cycles: float | None = None,
    ) -> None:
        """Account *instructions* retired inside *module* (no cache traffic).

        *base_cycles* is the module's no-miss execution time; when not
        given, the machine falls back to the server's ideal CPI.
        """
        self.instr_by_module[module] = self.instr_by_module.get(module, 0) + instructions
        if base_cycles is not None:
            self.base_by_module[module] = self.base_by_module.get(module, 0.0) + base_cycles
        self.branches += branches
        self.mispredicts += mispredicts

    # -- inspection --------------------------------------------------------

    @property
    def instructions(self) -> int:
        return sum(self.instr_by_module.values())

    @property
    def base_cycles(self) -> float:
        """No-miss cycles across modules (0 when not accounted)."""
        return sum(self.base_by_module.values())

    def __len__(self) -> int:
        """Number of cache-line touches (batched runs count every line)."""
        return len(self.kinds) + self._run_extra

    def clear(self) -> None:
        """Reset for reuse on the next transaction (avoids reallocation)."""
        self.kinds.clear()
        self.addrs.clear()
        self.mods.clear()
        self.instr_by_module.clear()
        self.base_by_module.clear()
        self.branches = 0
        self.mispredicts = 0
        self._run_extra = 0

    def events(self):
        """Iterate (kind, line_addr, module) tuples — test/debug helper.

        Batched ``IFETCH_RUN`` events are expanded back into per-line
        ``IFETCH`` tuples, so consumers see the equivalent flat stream.
        """
        for kind, addr, mod in zip(self.kinds, self.addrs, self.mods):
            if kind == IFETCH_RUN:
                start, n_lines = addr
                for line in range(start, start + n_lines):
                    yield (IFETCH, line, mod)
            else:
                yield (kind, addr, mod)
