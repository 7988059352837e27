"""TableSpec / EngineTable tests, unpartitioned and partitioned."""

import pytest

from repro.core.trace import AccessTrace
from repro.engines.common import EngineTable, TableSpec
from repro.storage.record import microbench_schema


def spec(n_rows=1000, **kw) -> TableSpec:
    return TableSpec("t", microbench_schema(), n_rows, **kw)


def index_regions(table: EngineTable, partition: int) -> list[tuple[int, int]]:
    _, index = table._parts[partition]
    return index.hot_regions()


class TestTableSpec:
    def test_logical_bytes(self):
        assert spec(n_rows=10).logical_bytes == 240

    def test_needs_rows(self):
        with pytest.raises(ValueError):
            spec(n_rows=0)

    def test_flags(self):
        s = TableSpec("x", microbench_schema(), 5, grows=True, warm_priority=2, replicated=True)
        assert s.grows and s.replicated and s.warm_priority == 2


class TestEngineTable:
    def test_dense_prepopulation_identity(self, space):
        t = EngineTable(spec(), space, index_kind="btree")
        assert t.probe(500, None, 0) == 500
        assert t.probe(1000, None, 0) is None
        assert t.probe(-1, None, 0) is None

    def test_insert_row_appends_and_indexes(self, space):
        t = EngineTable(spec(), space, index_kind="hash")
        rid = t.insert_row((9, 9), key=5000, trace=None, mod=0)
        assert rid == 1000
        assert t.probe(5000, None, 0) == rid
        assert t.heap.read(rid) == (9, 9)

    def test_analytic_backing_at_scale(self, space):
        t = EngineTable(spec(n_rows=10**9), space, index_kind="art")
        assert t.probe(10**8, None, 0) == 10**8

    def test_hot_regions_nonempty(self, space):
        t = EngineTable(spec(), space, index_kind="btree")
        regions = t.hot_regions()
        assert regions
        assert all(n > 0 for _, n in regions)


class TestPartitionedTable:
    """An EngineTable with more than one partition."""

    def make(self, n_rows=1000, parts=4, space=None):
        from repro.storage.address_space import DataAddressSpace

        return EngineTable(
            spec(n_rows=n_rows), space or DataAddressSpace(),
            index_kind="cc_btree", n_partitions=parts,
        )

    def test_partition_routing(self):
        t = self.make()
        assert t.partition_of(0) == 0
        assert t.partition_of(999) == 3
        assert t.partition_of(10**9) == 3  # clamped

    def test_probe_across_partitions(self):
        t = self.make()
        for key in (0, 251, 503, 999):
            assert t.probe(key, None, 0) == key
        assert t.probe(1000, None, 0) is None

    def test_partitions_have_disjoint_index_addresses(self):
        t = self.make()
        t0_lines = index_regions(t, 0)
        t1_lines = index_regions(t, 1)
        spans0 = {(b, b + n) for b, n in t0_lines}
        spans1 = {(b, b + n) for b, n in t1_lines}
        assert not spans0 & spans1

    def test_insert_routed_by_key(self):
        t = self.make()
        rid = t.insert_row((1, 2), key=10, trace=None, mod=0)
        assert t.probe(10, None, 0) == rid

    def test_partition_count_validated(self, space):
        with pytest.raises(ValueError):
            EngineTable(spec(), space, index_kind="btree", n_partitions=0)

    def test_emission_stays_in_one_partition(self):
        t = self.make(n_rows=100_000_000)
        tr = AccessTrace()
        t.probe(10, tr, 0)  # partition 0
        p0_regions = index_regions(t, 0)
        lo = min(b for b, _ in p0_regions)
        hi = max(b + n for b, n in p0_regions)
        assert all(lo <= a < hi for a in tr.addrs)

    def test_scan_returns_global_keys(self):
        t = self.make()
        assert t.range_scan(251, 3, None, 0) == [(251, 251), (252, 252), (253, 253)]

    def test_delete_and_reinsert_routed_by_key(self):
        t = self.make()
        assert t.delete_key(600)
        assert t.probe(600, None, 0) is None
        t.insert_key(600, 600)
        assert t.probe(600, None, 0) == 600


@pytest.mark.parametrize("n_partitions", [1, 4])
@pytest.mark.parametrize("n_rows", [5, 9, 12])
def test_keys_past_the_end_are_absent(space, n_rows, n_partitions):
    """A trailing partition that owns no rows reports none present."""
    t = EngineTable(spec(n_rows=n_rows), space, index_kind="cc_btree", n_partitions=n_partitions)
    assert all(t.probe(key, None, 0) == key for key in range(n_rows))
    for key in range(n_rows, n_rows + 4):
        assert t.probe(key, None, 0) is None, key
