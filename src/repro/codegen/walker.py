"""Code walker: turns component execution into instruction-line fetches.

Engines describe execution as "run this slice of module M" (e.g. "the
index-probe path through the B-tree code" or "one iteration of the
per-row loop").  The walker emits the corresponding instruction-line
fetches into the transaction's trace and accounts retired instructions,
branches and mispredicts from the module's density parameters.

Because a given transaction type takes the same code path every time,
the same (module, slice) pair produces the same lines on every call —
that is what gives repeated transactions their instruction locality,
and what lets large footprints overflow the L1I exactly as the paper
describes.  The walker compiles each slice once: its first line, line
count, instruction count and per-call accounting constants are
memoised, and only the branch and mispredict carries advance per call.
"""

from __future__ import annotations

from repro.codegen.layout import CodeLayout
from repro.core.trace import AccessTrace


class CodeWalker:
    """Emits instruction streams for modules registered in a layout."""

    def __init__(self, layout: CodeLayout) -> None:
        self.layout = layout
        self._branch_carry = 0.0
        self._mispredict_carry = 0.0
        # (mod_id, start_frac, end_frac) -> compiled slice.  Engines walk
        # a fixed set of slices, so this grows with code paths, not data.
        self._slices: dict[tuple[int, float, float], tuple] = {}

    # -- execution primitives ------------------------------------------------

    def run(self, trace: AccessTrace, mod_id: int, fraction: float = 1.0) -> int:
        """Execute the leading *fraction* of the module once.

        Returns the number of instructions retired.
        """
        return self.run_segment(trace, mod_id, 0.0, fraction)

    def run_segment(
        self, trace: AccessTrace, mod_id: int, start_frac: float, end_frac: float
    ) -> int:
        """Execute the [start_frac, end_frac) slice of the module once."""
        key = (mod_id, start_frac, end_frac)
        compiled = self._slices.get(key)
        if compiled is None:
            compiled = self._slices[key] = self._compile(mod_id, start_frac, end_frac)
        first, n_lines, instructions, branches_base, mispredict_rate, base_cycles = compiled
        if n_lines <= 0:
            return 0
        trace.ifetch_run(first, n_lines, mod_id)
        # branches_base is instructions * bpki / 1000.0, already rounded,
        # so this is the same float sum as computing the product here.
        branches_f = branches_base + self._branch_carry
        branches = int(branches_f)
        self._branch_carry = branches_f - branches
        mispredicts_f = branches * mispredict_rate + self._mispredict_carry
        mispredicts = int(mispredicts_f)
        self._mispredict_carry = mispredicts_f - mispredicts
        trace.retire(mod_id, instructions, branches, mispredicts, base_cycles=base_cycles)
        return instructions

    def loop(
        self,
        trace: AccessTrace,
        mod_id: int,
        start_frac: float,
        end_frac: float,
        iterations: int,
    ) -> int:
        """Execute a loop body slice *iterations* times.

        Every iteration re-fetches the body's lines; a body that fits in
        the L1I therefore hits after the first iteration, which is the
        instruction-locality effect of repetitive per-row work
        (Section 4.2.2).
        """
        total = 0
        for _ in range(iterations):
            total += self.run_segment(trace, mod_id, start_frac, end_frac)
        return total

    # -- internal --------------------------------------------------------------

    def _compile(self, mod_id: int, start_frac: float, end_frac: float) -> tuple:
        """(first line, n_lines, instructions, instructions * bpki / 1000,
        mispredict rate, base cycles) of one slice."""
        if not 0.0 <= start_frac <= end_frac <= 1.0:
            raise ValueError(f"invalid segment [{start_frac}, {end_frac})")
        module = self.layout.module(mod_id)
        total_lines = module.footprint_lines
        first = int(start_frac * total_lines)
        last = max(first + 1, int(round(end_frac * total_lines)))
        n_lines = min(last, total_lines) - first
        if n_lines <= 0:
            return (0, n_lines, 0, 0.0, 0.0, 0.0)
        instructions = module.instructions_for_lines(n_lines)
        return (
            self.layout.base_line(mod_id) + first,
            n_lines,
            instructions,
            instructions * module.branches_per_kilo_instruction / 1000.0,
            module.mispredict_rate,
            instructions * module.base_cpi,
        )
