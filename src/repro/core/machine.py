"""The simulated machine: cores + hierarchy + trace replay.

A :class:`Machine` owns the cache hierarchy, one
:class:`~repro.core.counters.PerfCounters` register file per core, and
per-code-module attribution tables.  Engines execute a transaction,
producing an :class:`~repro.core.trace.AccessTrace`, and hand it to
:meth:`Machine.run_trace`; cache state persists across transactions so
the replay reaches the same steady state a long profiled run would.

The replay loop is the hot path of the whole reproduction — it is
written with local-variable bindings and minimal indirection on purpose:
:meth:`Machine.run_trace` probes the cache and dTLB set dicts inline
rather than calling the hierarchy once per access, and the tests check
it against those per-access paths.  Each core also remembers the L1I
transition of its last trace at least as long as the L1I: a trace that
starts from the same L1I contents with the same instruction events
skips every L1I probe and sends only the remembered L1I misses down the
L2 -> LLC cascade.
"""

from __future__ import annotations

from typing import NamedTuple

from repro import obs
from repro.core.counters import PerfCounters
from repro.core.cpu import DEFAULT_OVERLAP, CycleModel, OverlapModel
from repro.core.hierarchy import MemoryHierarchy
from repro.core.spec import IVY_BRIDGE, ServerSpec
from repro.core.trace import AccessTrace, DLOAD_SERIAL, DSTORE, IFETCH, IFETCH_RUN

# Per-module attribution table layout (one list of ints per module id).
M_IF_L1M = 0
M_IF_L2M = 1
M_IF_LLCM = 2
M_D_L1M = 3
M_D_L2M = 4
M_D_LLCM = 5
M_D_SERIAL_LLCM = 6
M_INSTR = 7
M_COHER = 8
M_IFETCHES = 9
M_DACCESSES = 10
M_BASE_CYCLES = 11  # float accumulator (no-miss cycles)
M_DTLB_WALKS = 12
_MODULE_FIELDS = 13


class _L1ITransition(NamedTuple):
    """One trace's effect on a core's L1I (see :meth:`Machine._l1i_transition`)."""

    start: tuple[tuple[int, ...], ...]  # the L1I's sets in LRU order before the trace
    fetches: list  # the trace's instruction-event addrs, in order
    misses: list[list[int]]  # the L1I-miss lines of each instruction event
    evictions: int
    end: tuple[tuple[int, ...], ...]  # the sets after the trace; `start` itself if equal


class Machine:
    """A simulated server executing access traces on one or more cores."""

    def __init__(
        self,
        spec: ServerSpec = IVY_BRIDGE,
        n_cores: int = 1,
        overlap: OverlapModel = DEFAULT_OVERLAP,
        *,
        serial_miss_extra_cycles: int | None = None,
        tlb_mode: str = "constant",
        tlb_spec=None,
    ) -> None:
        self.spec = spec
        self.n_cores = n_cores
        hier_kwargs = {}
        if tlb_spec is not None:
            hier_kwargs["tlb_spec"] = tlb_spec
        self.hierarchy = MemoryHierarchy(spec, n_cores, **hier_kwargs)
        kwargs = {"tlb_mode": tlb_mode}
        if serial_miss_extra_cycles is not None:
            kwargs["serial_miss_extra_cycles"] = serial_miss_extra_cycles
        self.cycle_model = CycleModel(spec, overlap, **kwargs)
        self.counters = [PerfCounters() for _ in range(n_cores)]
        # module id -> attribution row; shared across cores (module
        # breakdown in the paper is per worker thread, and the runner
        # uses one machine per configuration).
        self.module_stats: dict[int, list[int]] = {}
        # core id -> the last L1I transition replay recorded on it.
        self._l1i_memo: list[_L1ITransition | None] = [None] * n_cores
        # Traces whose L1I misses the memo served (host work count).
        self.l1i_memo_hits = 0

    # -- replay ------------------------------------------------------------

    def run_trace(
        self, trace: AccessTrace, core_id: int = 0, *, transactions: int = 1
    ) -> PerfCounters:
        """Replay one transaction's trace on *core_id*.

        Returns the counter delta for just this transaction (cycles
        computed by the CPU model from the misses the replay produced).
        *transactions* is how many completed transactions the trace
        represents: 0 for an attempt that did not commit (its events
        still hit the caches — wasted work is real work — but it must
        not inflate per-transaction metrics).

        This is the replay kernel: one loop that probes the core's
        L1I/L1D/L2 set dicts, the LLC's and the core's two dTLB arrays
        inline, and adds the :class:`~repro.core.cache.CacheStats` and
        TLB tallies once per trace.  It evolves exactly the state that
        :meth:`~repro.core.hierarchy.MemoryHierarchy.access_instr` and
        ``access_data`` would, called once per line: every lookup
        allocates on a miss, so their inclusive fills always find the
        line resident and most-recently-used and are no-ops.  Coherence
        goes through :meth:`~repro.core.hierarchy.MemoryHierarchy.snoop`
        when the machine has more than one core.

        A trace of at least as many lines as the L1I holds takes its L1I
        misses from :meth:`_l1i_transition`: when the core's L1I starts
        in the state the remembered transition started from and the
        instruction events are equal, no L1I line is probed; each
        instruction event's remembered misses go down the L2 -> LLC
        cascade at that event's position, so the data path, snoops,
        counters and module rows still run per event in trace order.
        A shorter trace probes the L1I inline and records nothing.
        :attr:`l1i_memo_hits` counts the traces the memo served.
        """
        # Observability fast path: one null-check here, one complete()
        # below — no context-manager frame in the replay loop.
        _tracer = obs.tracer()
        _t0 = _tracer.clock() if _tracer is not None else 0

        hierarchy = self.hierarchy
        core = hierarchy.cores[core_id]
        l1i, l1d, l2, llc = core.l1i, core.l1d, core.l2, hierarchy.llc
        i1_sets, i1_n, i1_a = l1i._sets, l1i.n_sets, l1i.assoc
        d1_sets, d1_n, d1_a = l1d._sets, l1d.n_sets, l1d.assoc
        l2_sets, l2_n, l2_a = l2._sets, l2.n_sets, l2.assoc
        l3_sets, l3_n, l3_a = llc._sets, llc.n_sets, llc.assoc
        tlb = hierarchy.tlbs[core_id]
        t1_sets, t1_n, t1_a = tlb._l1._sets, tlb._l1.n_sets, tlb._l1.assoc
        t2_sets, t2_n, t2_a = tlb._stlb._sets, tlb._stlb.n_sets, tlb._stlb.assoc
        page_shift = tlb._page_shift
        snoop = hierarchy.snoop if hierarchy.n_cores > 1 else None
        module_stats = self.module_stats

        if_l1m = if_l2m = if_llcm = 0
        d_l1m = d_l2m = d_llcm = d_serial_llcm = 0
        n_if = n_loads = n_stores = n_coher = 0
        tlb_l1m = walks = 0
        e_i1 = e_d1 = e_l2 = e_l3 = 0

        # A trace at least as long as the L1I holds lines takes its L1I
        # misses from the core's remembered transition; a shorter one
        # cannot pay back the keying and probes the L1I inline.
        served = None
        memo = "off"
        if len(trace) >= i1_n * i1_a:
            l1i_misses, e_i1, memo = self._l1i_transition(core_id, trace)
            served = iter(l1i_misses)

        # Module-row lookup hoisted behind a last-module cache: traces
        # are long single-module spans, so most events reuse `row`.
        last_mod = -1
        row: list[int] | None = None
        for kind, addr, mod in zip(trace.kinds, trace.addrs, trace.mods):
            if mod != last_mod:
                row = module_stats.get(mod)
                if row is None:
                    row = [0] * _MODULE_FIELDS
                    module_stats[mod] = row
                last_mod = mod
            if kind == IFETCH_RUN or kind == IFETCH:
                # An IFETCH is a run of one line.
                if kind == IFETCH:
                    start, n_lines = addr, 1
                else:
                    start, n_lines = addr
                l1m = l2m = llcm = 0
                if served is not None:
                    # The L1I is already in the trace's end state: send
                    # this event's L1I misses down the L2 -> LLC cascade.
                    for line in next(served):
                        l1m += 1
                        s = l2_sets[line % l2_n]
                        if s.pop(line, 0) is None:
                            s[line] = None
                            continue
                        l2m += 1
                        if len(s) >= l2_a:
                            del s[next(iter(s))]
                            e_l2 += 1
                        s[line] = None
                        s = l3_sets[line % l3_n]
                        if s.pop(line, 0) is None:
                            s[line] = None
                            continue
                        llcm += 1
                        if len(s) >= l3_a:
                            del s[next(iter(s))]
                            e_l3 += 1
                        s[line] = None
                else:
                    for line in range(start, start + n_lines):
                        s = i1_sets[line % i1_n]
                        if s.pop(line, 0) is None:
                            s[line] = None
                            continue
                        l1m += 1
                        if len(s) >= i1_a:
                            del s[next(iter(s))]
                            e_i1 += 1
                        s[line] = None
                        s = l2_sets[line % l2_n]
                        if s.pop(line, 0) is None:
                            s[line] = None
                            continue
                        l2m += 1
                        if len(s) >= l2_a:
                            del s[next(iter(s))]
                            e_l2 += 1
                        s[line] = None
                        s = l3_sets[line % l3_n]
                        if s.pop(line, 0) is None:
                            s[line] = None
                            continue
                        llcm += 1
                        if len(s) >= l3_a:
                            del s[next(iter(s))]
                            e_l3 += 1
                        s[line] = None
                n_if += n_lines
                row[M_IFETCHES] += n_lines
                if l1m:
                    if_l1m += l1m
                    row[M_IF_L1M] += l1m
                    if_l2m += l2m
                    row[M_IF_L2M] += l2m
                    if_llcm += llcm
                    row[M_IF_LLCM] += llcm
                continue

            # A load or a store: dTLB translation, coherence, then the
            # L1D -> L2 -> LLC cascade.
            write = kind == DSTORE
            if write:
                n_stores += 1
            else:
                n_loads += 1
            row[M_DACCESSES] += 1
            page = addr >> page_shift
            s = t1_sets[page % t1_n]
            if s.pop(page, 0) is None:
                s[page] = None
            else:
                tlb_l1m += 1
                if len(s) >= t1_a:
                    del s[next(iter(s))]
                s[page] = None
                s = t2_sets[page % t2_n]
                if s.pop(page, 0) is None:
                    s[page] = None
                else:
                    walks += 1
                    row[M_DTLB_WALKS] += 1
                    if len(s) >= t2_a:
                        del s[next(iter(s))]
                    s[page] = None
            if snoop is not None and snoop(core_id, addr, write):
                n_coher += 1
                row[M_COHER] += 1
            s = d1_sets[addr % d1_n]
            if s.pop(addr, 0) is None:
                s[addr] = None
                continue
            d_l1m += 1
            row[M_D_L1M] += 1
            if len(s) >= d1_a:
                del s[next(iter(s))]
                e_d1 += 1
            s[addr] = None
            s = l2_sets[addr % l2_n]
            if s.pop(addr, 0) is None:
                s[addr] = None
                continue
            d_l2m += 1
            row[M_D_L2M] += 1
            if len(s) >= l2_a:
                del s[next(iter(s))]
                e_l2 += 1
            s[addr] = None
            s = l3_sets[addr % l3_n]
            if s.pop(addr, 0) is None:
                s[addr] = None
                continue
            d_llcm += 1
            row[M_D_LLCM] += 1
            if len(s) >= l3_a:
                del s[next(iter(s))]
                e_l3 += 1
            s[addr] = None
            if kind == DLOAD_SERIAL:
                d_serial_llcm += 1
                row[M_D_SERIAL_LLCM] += 1

        n_data = n_loads + n_stores
        for cache, accesses, misses, evictions in (
            (l1i, n_if, if_l1m, e_i1),
            (l1d, n_data, d_l1m, e_d1),
            (l2, if_l1m + d_l1m, if_l2m + d_l2m, e_l2),
            (llc, if_l2m + d_l2m, if_llcm + d_llcm, e_l3),
        ):
            st = cache.stats
            st.accesses += accesses
            st.hits += accesses - misses
            st.misses += misses
            st.evictions += evictions
        tlb.accesses += n_data
        tlb.l1_misses += tlb_l1m
        tlb.walks += walks

        delta = PerfCounters(
            instructions=trace.instructions,
            branches=trace.branches,
            mispredicts=trace.mispredicts,
            transactions=transactions,
            ifetches=n_if,
            loads=n_loads,
            stores=n_stores,
            l1i_misses=if_l1m,
            l2i_misses=if_l2m,
            llci_misses=if_llcm,
            l1d_misses=d_l1m,
            l2d_misses=d_l2m,
            llcd_misses=d_llcm,
            llcd_serial_misses=d_serial_llcm,
            coherence_misses=n_coher,
            dtlb_walks=walks,
        )
        delta.cycles = self.cycle_model.cycles(delta, trace.base_cycles)
        for mod, instrs in trace.instr_by_module.items():
            row = module_stats.get(mod)
            if row is None:
                row = [0] * _MODULE_FIELDS
                module_stats[mod] = row
            row[M_INSTR] += instrs
            row[M_BASE_CYCLES] += trace.base_by_module.get(mod, instrs * self.spec.base_cpi)
        self.counters[core_id].add(delta)
        if _tracer is not None:
            _tracer.complete(
                "replay", f"core{core_id}", "core", _t0,
                events=len(trace.kinds),
                instructions=delta.instructions,
                cycles=delta.cycles,
                l1i_memo=memo,
            )
        return delta

    def _l1i_transition(self, core_id: int, trace: AccessTrace) -> tuple[list, int, str]:
        """The L1I-miss lines of each instruction event of *trace* on
        *core_id*, the L1I's eviction count, and ``"hit"`` or
        ``"recorded"``; leaves the core's L1I in its end state.

        Only this core's instruction events touch its L1I (snoops touch
        L1D/L2, data never enters the L1I), and each probe depends only
        on its set's contents and order, so the transition is a pure
        function of the L1I's start contents and the instruction events.
        The core's last transition is reused when both are equal;
        otherwise the L1I is probed and the transition remembered.
        """
        l1i = self.hierarchy.cores[core_id].l1i
        sets = l1i._sets
        start = tuple(map(tuple, sets))
        fetches = [
            addr
            for kind, addr in zip(trace.kinds, trace.addrs)
            if kind == IFETCH_RUN or kind == IFETCH
        ]
        memo = self._l1i_memo[core_id]
        if memo is not None and memo.fetches == fetches and memo.start == start:
            self.l1i_memo_hits += 1
            if memo.end is not memo.start:
                for s, lines in zip(sets, memo.end):
                    s.clear()
                    s.update(dict.fromkeys(lines))
            return memo.misses, memo.evictions, "hit"

        n_sets, assoc = l1i.n_sets, l1i.assoc
        misses: list[list[int]] = []
        evictions = 0
        for addr in fetches:
            if addr.__class__ is tuple:
                first, n_lines = addr
            else:
                first, n_lines = addr, 1
            missed = []
            for line in range(first, first + n_lines):
                s = sets[line % n_sets]
                if s.pop(line, 0) is None:
                    s[line] = None
                    continue
                if len(s) >= assoc:
                    del s[next(iter(s))]
                    evictions += 1
                s[line] = None
                missed.append(line)
            misses.append(missed)
        end = tuple(map(tuple, sets))
        self._l1i_memo[core_id] = _L1ITransition(
            start, fetches, misses, evictions, start if end == start else end
        )
        return misses, evictions, "recorded"

    # -- module attribution --------------------------------------------------

    def module_cycles(self, rows: dict[int, list[int]] | None = None) -> dict[int, float]:
        """Elapsed cycles attributed to each module id.

        Each row of *rows* (default :attr:`module_stats`) is priced by
        :meth:`CycleModel.stall_terms`, the same terms that make a
        trace's elapsed cycles, on top of its no-miss base cycles.  Rows
        carry no mispredicts, so branch stalls stay unattributed: the
        rows sum to the window's cycles less its branch stalls, up to
        the per-trace rounding of :meth:`CycleModel.cycles`.
        """
        model = self.cycle_model
        out: dict[int, float] = {}
        for mod, row in (self.module_stats if rows is None else rows).items():
            frontend, data, coherence, branch, tlb = model.stall_terms(
                PerfCounters(
                    l1i_misses=row[M_IF_L1M],
                    l2i_misses=row[M_IF_L2M],
                    llci_misses=row[M_IF_LLCM],
                    l1d_misses=row[M_D_L1M],
                    l2d_misses=row[M_D_L2M],
                    llcd_misses=row[M_D_LLCM],
                    llcd_serial_misses=row[M_D_SERIAL_LLCM],
                    coherence_misses=row[M_COHER],
                    dtlb_walks=row[M_DTLB_WALKS],
                )
            )
            # Base first, then each term: `base + stall_cycles(...)` rounds differently.
            out[mod] = row[M_BASE_CYCLES] + frontend + data + coherence + branch + tlb
        return out

    def snapshot_module_stats(self) -> dict[int, list[int]]:
        """Deep-copyable snapshot for window-delta module attribution."""
        return {mod: list(row) for mod, row in self.module_stats.items()}

    # -- maintenance ---------------------------------------------------------

    def total_counters(self) -> PerfCounters:
        total = PerfCounters()
        for c in self.counters:
            total.add(c)
        return total

    def reset(self) -> None:
        """Cold caches and zeroed counters (fresh experiment repetition)."""
        self.hierarchy.flush()
        for c in self.counters:
            c.reset()
        self.module_stats.clear()
        self._l1i_memo = [None] * self.n_cores
