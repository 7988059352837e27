"""Differential tests: each precomputed trace-construction path against
its straightforward form.

Trace construction memoises or precomputes facts that do not change
between calls (walker slices, default rows, index and heap geometry).
Each test here re-derives the same output the slow way, from
``Region.line``, per-column ``default_value`` and a fresh walk, and
requires identical events, retired counts and float carries.
"""

import pickle

import pytest

from repro.codegen.layout import CodeLayout
from repro.codegen.module import ENGINE, OTHER, CodeModule
from repro.codegen.walker import CodeWalker
from repro.core.spec import CACHE_LINE_BYTES
from repro.core.trace import DLOAD, DLOAD_SERIAL, DSTORE, AccessTrace
from repro.engines.common import EngineTable, TableSpec
from repro.storage.address_space import DataAddressSpace
from repro.storage.btree import NODE_HEADER_BYTES, binary_search_probes
from repro.storage.hash_index import fibonacci_hash
from repro.storage.heap import HeapTable
from repro.storage.layout_models import AnalyticART, AnalyticBTree, AnalyticHash, _mix64
from repro.storage.record import LONG, STRING50, Schema, microbench_schema, string_type
from repro.storage.wal import WriteAheadLog, record_checksum, torn_copy
from repro.util.stablehash import stable_hash
from repro.workloads import TPCB, TPCC, MicroBenchmark, TPCELite


def trace_state(trace: AccessTrace) -> tuple:
    return (
        list(trace.events()),
        dict(trace.instr_by_module),
        dict(trace.base_by_module),
        trace.branches,
        trace.mispredicts,
    )


# -- walker ------------------------------------------------------------------


class ReferenceWalker:
    """The walker recomputed from the module on every call."""

    def __init__(self, layout: CodeLayout) -> None:
        self.layout = layout
        self.branch_carry = 0.0
        self.mispredict_carry = 0.0

    def run_segment(self, trace, mod_id, start_frac, end_frac) -> int:
        if not 0.0 <= start_frac <= end_frac <= 1.0:
            raise ValueError(f"invalid segment [{start_frac}, {end_frac})")
        module = self.layout.module(mod_id)
        total_lines = module.footprint_lines
        first = int(start_frac * total_lines)
        last = max(first + 1, int(round(end_frac * total_lines)))
        n_lines = min(last, total_lines) - first
        if n_lines <= 0:
            return 0
        trace.ifetch_run(self.layout.base_line(mod_id) + first, n_lines, mod_id)
        instructions = module.instructions_for_lines(n_lines)
        branches_f = (
            instructions * module.branches_per_kilo_instruction / 1000.0 + self.branch_carry
        )
        branches = int(branches_f)
        self.branch_carry = branches_f - branches
        mispredicts_f = branches * module.mispredict_rate + self.mispredict_carry
        mispredicts = int(mispredicts_f)
        self.mispredict_carry = mispredicts_f - mispredicts
        trace.retire(
            mod_id, instructions, branches, mispredicts,
            base_cycles=instructions * module.base_cpi,
        )
        return instructions


def _layout() -> CodeLayout:
    layout = CodeLayout()
    layout.add(CodeModule("parser", OTHER, 48_000, 11.0, 210.0, 0.07, 0.9))
    layout.add(CodeModule("btree", ENGINE, 9_000, 13.3, 177.7, 0.031, 0.55))
    layout.add(CodeModule("tiny", ENGINE, 64, 16.0, 150.0, 0.5, 0.37))
    layout.add(CodeModule("proc", ENGINE, 30_000, 15.1, 91.3, 0.011, 0.41))
    return layout


# Interleaved slices, repeats, zero-length tails, a whole-module walk
# and a slice of a one-line module.
SLICES = [
    (0, 0.0, 0.3), (1, 0.12, 0.52), (0, 0.34, 0.45), (3, 0.88, 1.0),
    (1, 0.12, 0.52), (2, 0.0, 1.0), (0, 0.0, 0.3), (3, 0.0, 0.06),
    (1, 1.0, 1.0), (0, 0.999, 1.0), (2, 0.5, 0.5), (3, 0.0, 1.0),
    (1, 0.3, 0.3001), (0, 0.34, 0.45), (3, 0.88, 1.0),
]


class TestWalkerMemo:
    def test_same_events_counts_and_carries_after_every_call(self):
        layout = _layout()
        fast, slow = CodeWalker(layout), ReferenceWalker(layout)
        fast_trace, slow_trace = AccessTrace(), AccessTrace()
        for _ in range(7):
            for mod_id, start, end in SLICES:
                assert fast.run_segment(fast_trace, mod_id, start, end) == slow.run_segment(
                    slow_trace, mod_id, start, end
                )
                assert fast._branch_carry == slow.branch_carry
                assert fast._mispredict_carry == slow.mispredict_carry
                assert trace_state(fast_trace) == trace_state(slow_trace)

    def test_loop_and_run_match_reference(self):
        layout = _layout()
        fast, slow = CodeWalker(layout), ReferenceWalker(layout)
        fast_trace, slow_trace = AccessTrace(), AccessTrace()
        assert fast.loop(fast_trace, 1, 0.2, 0.27, 13) == sum(
            slow.run_segment(slow_trace, 1, 0.2, 0.27) for _ in range(13)
        )
        assert fast.run(fast_trace, 0, 0.06) == slow.run_segment(slow_trace, 0, 0.0, 0.06)
        assert trace_state(fast_trace) == trace_state(slow_trace)
        assert fast._branch_carry == slow.branch_carry

    def test_invalid_segment_raises_every_time(self):
        walker = CodeWalker(_layout())
        for _ in range(2):
            with pytest.raises(ValueError, match="invalid segment"):
                walker.run_segment(AccessTrace(), 0, 0.6, 0.5)

    def test_memo_is_bounded_by_distinct_slices(self):
        walker = CodeWalker(_layout())
        trace = AccessTrace()
        for _ in range(50):
            for mod_id, start, end in SLICES:
                walker.run_segment(trace, mod_id, start, end)
        assert len(walker._slices) == len(set(SLICES))


# -- default rows and column lookup -------------------------------------------------


def _workload_schemas() -> list[Schema]:
    workloads = [
        TPCC(warehouses=2),
        TPCB(db_bytes=100 << 20),
        TPCELite(customers=1000),
        MicroBenchmark(db_bytes=1 << 24),
        MicroBenchmark(db_bytes=1 << 24, column_type=STRING50),
    ]
    return [spec.schema for wl in workloads for spec in wl.table_specs()]


MIXED = Schema(
    "mixed",
    (("id", LONG), ("name", STRING50), ("qty", LONG), ("tag", string_type(7)), ("x", LONG)),
)


class TestDefaultRow:
    @pytest.mark.parametrize(
        "schema",
        _workload_schemas() + [MIXED, microbench_schema(string_type(3)), Schema("empty", ())],
        ids=lambda s: s.name,
    )
    def test_matches_per_column_default_value(self, schema):
        for row_id in (0, 1, 2, 31, 1000, 123_456_789, 2**40 + 3, 10**12):
            expected = tuple(
                ct.default_value(row_id * 31 + i) for i, (_, ct) in enumerate(schema.columns)
            )
            assert schema.default_row(row_id) == expected

    def test_schema_pickles_with_its_derived_lookups(self):
        schema = pickle.loads(pickle.dumps(MIXED))
        assert schema == MIXED
        assert schema.default_row(77) == MIXED.default_row(77)
        assert schema.column_index("tag") == 3

    def test_column_index_map(self):
        for i, (name, _) in enumerate(MIXED.columns):
            assert MIXED.column_index(name) == i
        with pytest.raises(KeyError, match="no column 'nope' in schema 'mixed'"):
            MIXED.column_index("nope")

    def test_duplicate_column_names_resolve_to_the_first(self):
        schema = Schema("dup", (("a", LONG), ("b", LONG), ("a", LONG)))
        assert schema.column_index("a") == 0


# -- index probe paths ---------------------------------------------------------


def ref_btree_lines(idx: AnalyticBTree, key) -> list[int]:
    frac = idx._rank(key)
    lines = []
    for count, region in zip(idx.level_node_counts, idx._level_regions):
        node_idx = min(count - 1, int(frac * count))
        base = region.line(node_idx * idx.page_bytes)
        lines.append(base)
        within = frac * count - node_idx
        entries = idx.entries_per_node
        target = min(entries - 1, int(within * entries))
        seen = {base}
        cap = idx.search_line_cap
        for i in binary_search_probes(entries, target):
            line = base + (NODE_HEADER_BYTES + i * idx.entry_stride) // CACHE_LINE_BYTES
            if line not in seen:
                if cap is not None and len(seen) > cap:
                    break
                seen.add(line)
                lines.append(line)
    return lines


def ref_art_lines(idx: AnalyticART, key) -> list[int]:
    frac = idx._rank(key)
    key_scaled = int(frac * idx.n_keys)
    lines = []
    for level, (count, node_bytes, region) in enumerate(
        zip(idx.level_node_counts, idx.level_node_bytes, idx._level_regions)
    ):
        node_idx = min(count - 1, int(frac * count))
        byte = (key_scaled >> (8 * (idx.inner_levels - 1 - level))) & 0xFF
        slot_off = min(16 + byte * 8, node_bytes - 8)
        lines.append(region.line(node_idx * node_bytes + slot_off))
    leaf_idx = min(idx.n_keys - 1, key_scaled)
    lines.append(idx._leaf_region.line(leaf_idx * idx.LEAF_BYTES))
    return lines


def ref_hash_lines(idx: AnalyticHash, key) -> list[int]:
    bucket = fibonacci_hash(stable_hash(key), idx.n_buckets)
    lines = [idx._bucket_region.line(bucket * idx.SLOT_BYTES)]
    u = _mix64(stable_hash(key) ^ 0xC0FFEE) / 2**64
    p_extra = idx.load_factor / 2
    position = 0
    while u < p_extra ** (position + 1) and position < 4:
        position += 1
    for i in range(position + 1):
        entry_idx = _mix64(stable_hash(key) + i * 0x5851F42D) % max(1, idx.n_keys)
        lines.append(idx._entry_region.line(entry_idx * idx.ENTRY_BYTES))
    return lines


def ref_lines(idx, key) -> list[int]:
    if isinstance(idx, AnalyticBTree):
        return ref_btree_lines(idx, key)
    if isinstance(idx, AnalyticART):
        return ref_art_lines(idx, key)
    return ref_hash_lines(idx, key)


def _models(n_keys: int) -> list:
    space = DataAddressSpace()
    return [
        AnalyticBTree("bt", space, n_keys=n_keys),
        AnalyticBTree("cc", space, n_keys=n_keys, page_bytes=512),
        AnalyticBTree("odd", space, n_keys=n_keys, page_bytes=200, key_bytes=6, value_bytes=6),
        AnalyticBTree("cap", space, n_keys=n_keys, page_bytes=4096, search_line_cap=2),
        AnalyticART("art", space, n_keys=n_keys),
        AnalyticHash("hash", space, n_keys=n_keys),
        AnalyticHash("hash9", space, n_keys=n_keys, load_factor=0.9),
    ]


def _unxorshift(y: int, shift: int) -> int:
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _unmix64(z: int) -> int:
    """The x with ``_mix64(x) == z`` (SplitMix64's finaliser is a bijection)."""
    mask = 2**64 - 1
    x = _unxorshift(z, 31)
    x = (x * pow(0x94D049BB133111EB, -1, 2**64)) & mask
    x = _unxorshift(x, 27)
    x = (x * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & mask
    x = _unxorshift(x, 30)
    return (x - 0x9E3779B97F4A7C15) & mask


# An out-of-range int key whose hash rank rounds to exactly 1.0: the
# only way a probe reaches the node, slot and leaf clamps.
RANK_ONE_KEY = _unmix64(2**64 - 1)


def test_rank_one_key_reaches_the_clamps():
    idx = AnalyticART("a", DataAddressSpace(), n_keys=1000)
    assert idx._rank(RANK_ONE_KEY) == 1.0


def _keys(n_keys: int) -> list:
    dense = sorted({0, 1, 2, 255, 256, 257, n_keys // 3, n_keys // 2, n_keys - 2, n_keys - 1})
    dense = [k for k in dense if 0 <= k < n_keys]
    out_of_range = [-1, -(2**40), n_keys, n_keys + 1, 10**15, 2**64 + 5, RANK_ONE_KEY]
    other = [(3, 7), (0, 0, 1), ("w", 12), "item-42", None, True, 2.5]
    return dense + list(range(0, n_keys, max(1, n_keys // 97))) + out_of_range + other


N_KEYS = (1, 2, 100, 256, 257, 65_537, 3_000_000, 1_250_000_000)


class TestProbeLines:
    @pytest.mark.parametrize("n_keys", N_KEYS)
    def test_models_match_region_line_reference(self, n_keys):
        for idx in _models(n_keys):
            for key in _keys(n_keys):
                assert idx.probe_lines(key) == ref_lines(idx, key), (idx.name, key)

    @pytest.mark.parametrize("kind", ["btree", "cc_btree", "art", "hash"])
    def test_partitioned_tables_match_reference(self, kind):
        spec = TableSpec("t", microbench_schema(), 10_007)
        table = EngineTable(spec, DataAddressSpace(), index_kind=kind, n_partitions=4)
        for key in list(range(0, 10_007, 37)) + [10_006, 10_007, 20_000, -5]:
            base, index = table._partition(key)
            assert table.probe_lines(key) == ref_lines(index, key - base)


def ref_probe_events(idx, key, mod) -> list:
    return [(DLOAD_SERIAL, line, mod) for line in ref_lines(idx, key)]


class TestIndexOperationEvents:
    @pytest.mark.parametrize("n_keys", (100, 3_000_000))
    def test_probe_insert_delete_streams(self, n_keys):
        for idx in _models(n_keys):
            mod = 5
            for key in _keys(n_keys)[::3]:
                if key is None:
                    continue
                trace = AccessTrace()
                idx.probe(key, trace, mod)
                assert list(trace.events()) == ref_probe_events(idx, key, mod)

                trace = AccessTrace()
                idx.insert(key, "v", trace, mod)
                expected = ref_probe_events(idx, key, mod)
                expected.append((DSTORE, ref_lines(idx, key)[-1], mod))
                assert list(trace.events()) == expected

                # Present now: the B-tree rewrites the leaf entry.
                trace = AccessTrace()
                assert idx.delete(key, trace, mod)
                expected = ref_probe_events(idx, key, mod)
                if isinstance(idx, AnalyticBTree):
                    expected.append((DSTORE, ref_lines(idx, key)[-1], mod))
                assert list(trace.events()) == expected

                # Absent: nothing to rewrite.
                trace = AccessTrace()
                assert not idx.delete(key, trace, mod)
                assert list(trace.events()) == ref_probe_events(idx, key, mod)

    def test_untraced_operations_keep_semantics(self):
        for idx in _models(1000):
            idx.insert(7, "x")
            assert idx.probe(7) == "x"
            assert idx.delete(7)
            assert not idx.delete(7)
            assert idx.probe(7) is None


# -- heap demand lines ---------------------------------------------------------------


def ref_row_lines(heap: HeapTable, row_id: int) -> range:
    """A row's lines through the bounds-checked region path."""
    return heap.region.lines_for(heap.row_offset(row_id), heap.row_bytes)


def ref_read_events(heap: HeapTable, row_id: int, mod: int, serial: bool) -> list:
    lines = ref_row_lines(heap, row_id)[::2]
    return [
        (DLOAD_SERIAL if serial and i == 0 else DLOAD, line, mod) for i, line in enumerate(lines)
    ]


HEAP_SCHEMAS = [microbench_schema(), microbench_schema(STRING50), MIXED] + [
    s for s in _workload_schemas() if s.name in ("customer", "stock", "district")
]


class TestHeapLines:
    @pytest.mark.parametrize("schema", HEAP_SCHEMAS, ids=lambda s: s.name)
    def test_row_lines_matches_region(self, schema):
        heap = HeapTable("h", schema, 5000, DataAddressSpace())
        for row_id in list(range(0, 40)) + [4999, heap.capacity_rows - 1]:
            assert heap.row_lines(row_id) == ref_row_lines(heap, row_id)

    @pytest.mark.parametrize("schema", HEAP_SCHEMAS, ids=lambda s: s.name)
    def test_read_matches_row_lines(self, schema):
        heap = HeapTable("h", schema, 5000, DataAddressSpace())
        for row_id in list(range(0, 40)) + [999, 4998, 4999]:
            for serial in (True, False):
                trace = AccessTrace()
                assert heap.read(row_id, trace, 3, serial=serial) == schema.default_row(row_id)
                assert list(trace.events()) == ref_read_events(heap, row_id, 3, serial)

    @pytest.mark.parametrize("schema", HEAP_SCHEMAS, ids=lambda s: s.name)
    def test_update_column_matches_read_then_store(self, schema):
        heap = HeapTable("h", schema, 500, DataAddressSpace())
        last = schema.columns[-1][0]
        for row_id in (0, 1, 7, 499):
            for old_row in (None, heap.read(row_id)):
                trace = AccessTrace()
                new_row = heap.update_column(row_id, last, 42, trace, 2, old_row=old_row)
                assert new_row[:-1] == heap.read(row_id)[:-1] and new_row[-1] == 42
                expected = ref_read_events(heap, row_id, 2, True)
                expected += [(DSTORE, line, 2) for line in ref_row_lines(heap, row_id)[::2]]
                assert list(trace.events()) == expected

    def test_update_column_checks_row_and_column_first(self):
        heap = HeapTable("h", MIXED, 10, DataAddressSpace())
        trace = AccessTrace()
        with pytest.raises(KeyError):
            heap.update_column(3, "nope", 1, trace)
        with pytest.raises(IndexError):
            heap.update_column(10, "qty", 1, trace)
        assert len(trace) == 0


# -- log checksums ---------------------------------------------------------------


class TestDeferredChecksum:
    def _log(self):
        return WriteAheadLog("w", DataAddressSpace(), retain_all=True)

    def test_checksum_equals_eager_value(self):
        log = self._log()
        payloads = [("t", 3, (1, 2, 3)), ("t", 4), None, ("g", (1, 2)), ("t", 1, ("abc", 2.5))]
        records = [log.append(9, "update", 40, payload=p) for p in payloads]
        for record in records:
            assert record.intact
            assert record.checksum == record_checksum(
                record.lsn, record.txn_id, record.kind, record.payload_bytes, record.payload
            )
            assert not torn_copy(record).intact

    def test_unread_checksum_survives_pickling_and_equality(self):
        log = self._log()
        a = log.append(1, "insert", 24, payload=("t", 1, 1, (5, 6)))
        b = pickle.loads(pickle.dumps(a))
        assert b.intact
        assert b == a
        assert b.checksum == a.checksum == record_checksum(1, 1, "insert", 24, ("t", 1, 1, (5, 6)))
