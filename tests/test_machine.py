"""Machine replay tests: miss counting, cycles, module attribution."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.bench.figures.common import TPC_DB_BYTES, cell_spec, engine_config_for
from repro.bench.parallel import workload_spec
from repro.bench.runner import measure_window
from repro.core.machine import Machine
from repro.core.tlb import TLBSpec
from repro.core.trace import AccessTrace
from tests.conftest import TINY_SERVER
from tests.reference_replay import copy_trace, machine_state, reference_run_trace


def make_trace(*, ifetch_lines=(), loads=(), serial_loads=(), stores=(), instr=0, mod=0):
    t = AccessTrace()
    for line in ifetch_lines:
        t.ifetch(line, mod)
    for line in loads:
        t.load(line, mod)
    for line in serial_loads:
        t.load(line, mod, serial=True)
    for line in stores:
        t.store(line, mod)
    if instr:
        t.retire(mod, instr)
    return t


class TestMissCounting:
    def test_cold_ifetch_counts_all_levels(self, tiny_machine):
        d = tiny_machine.run_trace(make_trace(ifetch_lines=[1], instr=16))
        assert d.l1i_misses == 1
        assert d.l2i_misses == 1
        assert d.llci_misses == 1

    def test_warm_ifetch_counts_nothing(self, tiny_machine):
        tiny_machine.run_trace(make_trace(ifetch_lines=[1], instr=16))
        d = tiny_machine.run_trace(make_trace(ifetch_lines=[1], instr=16))
        assert d.l1i_misses == 0

    def test_serial_llc_misses_flagged(self, tiny_machine):
        d = tiny_machine.run_trace(make_trace(serial_loads=[1000], instr=10))
        assert d.llcd_misses == 1
        assert d.llcd_serial_misses == 1

    def test_parallel_loads_not_serial(self, tiny_machine):
        d = tiny_machine.run_trace(make_trace(loads=[1000], instr=10))
        assert d.llcd_misses == 1
        assert d.llcd_serial_misses == 0

    def test_stores_counted(self, tiny_machine):
        d = tiny_machine.run_trace(make_trace(stores=[1, 2], instr=10))
        assert d.stores == 2
        assert d.l1d_misses == 2

    def test_transactions_increment(self, tiny_machine):
        tiny_machine.run_trace(make_trace(instr=1))
        tiny_machine.run_trace(make_trace(instr=1))
        assert tiny_machine.counters[0].transactions == 2

    def test_cache_state_persists_across_traces(self, tiny_machine):
        tiny_machine.run_trace(make_trace(loads=[7], instr=1))
        d = tiny_machine.run_trace(make_trace(loads=[7], instr=1))
        assert d.l1d_misses == 0


class TestCycles:
    def test_cycles_accumulate(self, tiny_machine):
        d = tiny_machine.run_trace(make_trace(ifetch_lines=range(100), instr=1600))
        assert d.cycles > 0
        assert tiny_machine.counters[0].cycles == d.cycles

    def test_base_cycles_used_when_accounted(self, tiny_machine):
        t = AccessTrace()
        t.retire(0, 1000, base_cycles=450.0)
        d = tiny_machine.run_trace(t)
        assert d.cycles == 450

    def test_ideal_cpi_fallback(self, tiny_machine):
        t = AccessTrace()
        t.retire(0, 3000)
        d = tiny_machine.run_trace(t)
        assert d.cycles == pytest.approx(1000, rel=0.01)


class TestModuleAttribution:
    def test_misses_tallied_per_module(self, tiny_machine):
        t = AccessTrace()
        t.ifetch(1, 3)
        t.load(2000, 5, serial=True)
        t.retire(3, 100, base_cycles=50)
        tiny_machine.run_trace(t)
        cycles = tiny_machine.module_cycles()
        assert set(cycles) == {3, 5}
        assert cycles[3] > 0 and cycles[5] > 0

    def test_module_cycles_scale_with_misses(self, tiny_machine):
        t = AccessTrace()
        for i in range(10):
            t.load(5000 + i * 64, 1, serial=True)
        t.retire(2, 100, base_cycles=40)
        tiny_machine.run_trace(t)
        cycles = tiny_machine.module_cycles()
        assert cycles[1] > cycles[2]

    def test_snapshot_is_independent(self, tiny_machine):
        tiny_machine.run_trace(make_trace(ifetch_lines=[1], instr=16, mod=4))
        snap = tiny_machine.snapshot_module_stats()
        tiny_machine.run_trace(make_trace(ifetch_lines=[99], instr=16, mod=4))
        assert snap[4] != tiny_machine.module_stats[4]


class TestMultiCore:
    def test_per_core_counters(self):
        m = Machine(TINY_SERVER, n_cores=2)
        m.run_trace(make_trace(loads=[1], instr=10), core_id=0)
        m.run_trace(make_trace(loads=[2], instr=20), core_id=1)
        assert m.counters[0].instructions == 10
        assert m.counters[1].instructions == 20
        total = m.total_counters()
        assert total.instructions == 30
        assert total.transactions == 2

    def test_coherence_miss_counted(self):
        m = Machine(TINY_SERVER, n_cores=2)
        m.run_trace(make_trace(stores=[9], instr=1), core_id=0)
        d = m.run_trace(make_trace(loads=[9], instr=1), core_id=1)
        assert d.coherence_misses == 1

    def test_reset(self, tiny_machine):
        tiny_machine.run_trace(make_trace(loads=[1], instr=5))
        tiny_machine.reset()
        assert tiny_machine.counters[0].instructions == 0
        assert not tiny_machine.module_stats
        d = tiny_machine.run_trace(make_trace(loads=[1], instr=5))
        assert d.l1d_misses == 1  # cold again


class TestBatchedIfetchRuns:
    """The IFETCH_RUN fast path must be bit-identical to per-line replay."""

    def test_batched_run_matches_expanded_ifetches(self):
        rng = random.Random(7)
        batched, expanded = AccessTrace(), AccessTrace()
        for i in range(20):
            start = rng.randrange(100_000)
            n = rng.randrange(1, 700)
            batched.ifetch_run(start, n, module=i % 3)
            for line in range(start, start + n):
                expanded.ifetch(line, i % 3)
            for _ in range(15):
                addr = 10**8 + rng.randrange(10**5)
                serial = rng.random() < 0.5
                store = rng.random() < 0.3
                for t in (batched, expanded):
                    t.store(addr, 1) if store else t.load(addr, 1, serial=serial)
        for t in (batched, expanded):
            t.retire(0, 1000, branches=10, mispredicts=2, base_cycles=400)
        assert len(batched) == len(expanded)

        fused, reference = Machine(n_cores=2), Machine(n_cores=2)
        d1 = fused.run_trace(batched, core_id=1)
        d2 = reference_run_trace(reference, expanded, core_id=1)
        assert d1.as_dict() == d2.as_dict()
        assert machine_state(fused) == machine_state(reference)


# A dTLB small enough that a few hundred pages evict from both levels.
TINY_DTLB = TLBSpec(
    "tiny-dTLB", l1_entries=8, l1_associativity=2, stlb_entries=32, stlb_associativity=4
)

# Lines from a hot span that fits the tiny LLC, and from a wide one that
# spans 512 pages, so every cache level and both dTLB levels evict.
line_st = st.one_of(st.integers(0, 1_500), st.integers(0, 1 << 15))
event_st = st.one_of(
    st.tuples(st.just("ifetch_run"), line_st, st.integers(0, 40)),
    st.tuples(st.sampled_from(["ifetch", "load", "load_serial", "store"]), line_st, st.just(0)),
)
trace_st = st.tuples(
    st.integers(0, 2),  # core (taken modulo the machine's core count)
    st.sampled_from([0, 1]),  # transactions
    st.lists(st.tuples(event_st, st.integers(0, 3)), max_size=50),
)


def build_trace(events) -> AccessTrace:
    t = AccessTrace()
    for (kind, line, n), mod in events:
        if kind == "ifetch_run":
            t.ifetch_run(line, n, mod)
        elif kind == "ifetch":
            t.ifetch(line, mod)
        elif kind == "store":
            t.store(line, mod)
        else:
            t.load(line, mod, serial=kind == "load_serial")
        t.retire(mod, 3, branches=1, base_cycles=1.5 if mod % 2 else None)
    return t


class TestFusedReplayMatchesReference:
    """run_trace against one access_instr/access_data call per line."""

    @settings(max_examples=120, deadline=None)
    @given(n_cores=st.sampled_from([1, 3]), traces=st.lists(trace_st, min_size=1, max_size=8))
    def test_random_traces(self, n_cores, traces):
        fused, reference = (
            Machine(TINY_SERVER, n_cores=n_cores, tlb_spec=TINY_DTLB) for _ in range(2)
        )
        for core, transactions, events in traces:
            trace = build_trace(events)
            core %= n_cores
            d1 = fused.run_trace(trace, core, transactions=transactions)
            d2 = reference_run_trace(reference, trace, core, transactions=transactions)
            assert d1.as_dict() == d2.as_dict()
        assert machine_state(fused) == machine_state(reference)

    def test_every_level_evicts_under_the_strategy_geometry(self):
        # The strategy's address mix must reach every eviction path the
        # fused loop inlines, or the property above proves little.
        rng = random.Random(3)
        machine = Machine(TINY_SERVER, n_cores=3, tlb_spec=TINY_DTLB)
        for i in range(30):
            events = [
                (
                    (rng.choice(["ifetch_run", "ifetch", "load", "load_serial", "store"]),
                     rng.choice([rng.randrange(1_501), rng.randrange(1 << 15)]),
                     rng.randrange(41)),
                    rng.randrange(4),
                )
                for _ in range(50)
            ]
            machine.run_trace(build_trace(events), i % 3)
        hierarchy = machine.hierarchy
        caches = [hierarchy.llc] + [
            c for core in hierarchy.cores for c in (core.l1i, core.l1d, core.l2)
        ]
        assert all(c.stats.evictions for c in caches)
        tlb = hierarchy.tlbs[0]
        assert tlb.walks and all(
            len(s) == TINY_DTLB.stlb_associativity for s in tlb._stlb._sets
        )
        assert hierarchy.coherence_transfers


# Instruction skeletons, as (first line, n lines) runs, on TINY_SERVER's
# L1I of 32 lines (16 sets, 2 ways); a trace of 32 lines or more keys
# the memo.  WARM leaves each set s holding (s, s + 16).  SWAP turns each
# set's order round, and BACK, below the gate, turns it back, so a
# second SWAP from WARM's state is served with an end state unlike its
# start.  LOOP overflows the L1I into a fixed point that still evicts.
WARM = ((0, 32),)
SWAP = ((16, 16), (0, 16))
BACK = ((16, 16),)
LOOP = ((0, 48),)
skeleton_st = st.one_of(
    st.sampled_from([WARM, SWAP, BACK, LOOP]),
    st.lists(st.tuples(st.integers(0, 47), st.integers(1, 40)), min_size=1, max_size=4).map(tuple),
)
data_st = st.tuples(st.sampled_from(["load", "load_serial", "store"]), line_st, st.just(0))
schedule_st = st.lists(
    st.tuples(st.integers(0, 2), skeleton_st, st.lists(data_st, max_size=6)),
    min_size=1,
    max_size=12,
)
# Both kinds of served trace, with and without L1I evictions.
MEMO_SCHEDULE = [(0, WARM, []), (0, SWAP, []), (0, BACK, []), (0, SWAP, [("store", 5, 0)]),
                 (0, SWAP, []), (0, SWAP, []), (0, LOOP, []), (0, LOOP, [("load", 9, 0)]),
                 (0, LOOP, [])]


def skeleton_trace(skeleton, data) -> AccessTrace:
    """Each run of *skeleton*, each followed by its round-robin share of *data*."""
    events = []
    for i, (first, n_lines) in enumerate(skeleton):
        events.append((("ifetch_run", first, n_lines), i % 3))
        events += [(event, 3) for event in data[i::len(skeleton)]]
    return build_trace(events)


class TestL1IMemo:
    """The per-core L1I transition memo of run_trace, against the reference."""

    @settings(max_examples=80, deadline=None)
    @given(n_cores=st.sampled_from([1, 3]), schedule=schedule_st)
    @example(n_cores=1, schedule=MEMO_SCHEDULE)
    @example(n_cores=3, schedule=[(core, *rest) for _, *rest in MEMO_SCHEDULE for core in (0, 2)])
    def test_schedules_match_reference(self, n_cores, schedule):
        fused, reference = (
            Machine(TINY_SERVER, n_cores=n_cores, tlb_spec=TINY_DTLB) for _ in range(2)
        )
        for core, skeleton, data in schedule:
            trace = skeleton_trace(skeleton, data)
            core %= n_cores
            d1 = fused.run_trace(trace, core)
            d2 = reference_run_trace(reference, trace, core)
            assert d1.as_dict() == d2.as_dict()
            assert machine_state(fused) == machine_state(reference)

    def test_schedule_serves_every_kind_of_transition(self):
        machine = Machine(TINY_SERVER)
        l1i = machine.hierarchy.cores[0].l1i
        served = []
        for _, skeleton, data in MEMO_SCHEDULE:
            hits, evictions = machine.l1i_memo_hits, l1i.stats.evictions
            start = [list(s) for s in l1i._sets]
            machine.run_trace(skeleton_trace(skeleton, data))
            if machine.l1i_memo_hits > hits:
                served.append(
                    ([list(s) for s in l1i._sets] == start, l1i.stats.evictions > evictions)
                )
        # Served from a fixed point, from a state it leaves, and with evictions.
        assert {(True, False), (False, False), (True, True)} <= set(served)

    def test_trace_below_the_gate_never_hits(self):
        machine = Machine(TINY_SERVER)
        trace = skeleton_trace(((0, 31),), [])
        assert len(trace) < 32
        for _ in range(5):
            machine.run_trace(trace)
        assert machine.l1i_memo_hits == 0

    def test_replay_span_says_how_the_l1i_was_replayed(self):
        machine = Machine(TINY_SERVER)
        with obs.using_obs(True) as tracer:
            for skeleton in (BACK, LOOP, LOOP, LOOP):
                machine.run_trace(skeleton_trace(skeleton, []))
        memo = [e.args["l1i_memo"] for e in tracer.events if e.name == "replay"]
        # The second LOOP starts from the first one's end state.
        assert memo == ["off", "recorded", "recorded", "hit"]

    def test_reset_drops_the_transitions(self):
        machine = Machine(TINY_SERVER)
        trace = skeleton_trace(LOOP, [])
        machine.run_trace(trace)
        machine.reset()
        machine.run_trace(trace)
        assert machine.l1i_memo_hits == 0
        machine.run_trace(trace)
        machine.run_trace(trace)
        assert machine.l1i_memo_hits == 1


class TestEngineTracesMatchReference:
    """Real engine traces, replayed from the cell's primed machine."""

    @pytest.mark.parametrize(
        "system, kind, n_cores",
        [("hyper", "micro", 1), ("shore-mt", "micro", 1), ("shore-mt", "tpcb", 4)],
    )
    def test_quick_cell(self, monkeypatch, system, kind, n_cores):
        spec = cell_spec(
            system, quick=True, engine_config=engine_config_for(system, kind), n_cores=n_cores
        )
        captured = []
        run_trace = Machine.run_trace

        def capture(machine, trace, core_id=0, *, transactions=1):
            captured.append((copy_trace(trace), core_id, transactions))
            return run_trace(machine, trace, core_id, transactions=transactions)

        monkeypatch.setattr(Machine, "run_trace", capture)
        engine, _, _ = measure_window(
            spec, workload_spec(kind, db_bytes=TPC_DB_BYTES), spec.rep_seed(0)
        )
        monkeypatch.undo()
        assert {core for _, core, _ in captured} == set(range(n_cores))

        fused, reference = spec.machine(engine), spec.machine(engine)
        for trace, core, transactions in captured:
            d1 = fused.run_trace(trace, core, transactions=transactions)
            d2 = reference_run_trace(reference, trace, core, transactions=transactions)
            assert d1.as_dict() == d2.as_dict()
        assert machine_state(fused) == machine_state(reference)
        # HyPer's traces are shorter than the L1I and never key the memo.
        assert (fused.l1i_memo_hits > 0) == (system != "hyper")
