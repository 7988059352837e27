"""Analytic layout-model tests: determinism, scale, fidelity vs materialised."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.trace import AccessTrace
from repro.storage.address_space import DataAddressSpace
from repro.storage.art import AdaptiveRadixTree
from repro.storage.btree import BPlusTree
from repro.storage.hash_index import HashIndex
from repro.storage.layout_models import AnalyticART, AnalyticBTree, AnalyticHash

BILLION = 1_250_000_000


def identity_within(n):
    return lambda k: k if 0 <= k < n else None


class TestAnalyticBTree:
    def make(self, n=BILLION, **kw):
        return AnalyticBTree(
            "b", DataAddressSpace(), n_keys=n, key_to_value=identity_within(n), **kw
        )

    def test_probe_resolves_prepopulated_keys(self):
        idx = self.make()
        assert idx.probe(0) == 0
        assert idx.probe(BILLION - 1) == BILLION - 1
        assert idx.probe(BILLION) is None

    def test_probe_lines_deterministic(self):
        idx = self.make()
        assert idx.probe_lines(123456789) == idx.probe_lines(123456789)

    def test_distinct_keys_distinct_paths(self):
        idx = self.make()
        a = idx.probe_lines(1)
        b = idx.probe_lines(BILLION // 2)
        assert a[-1] != b[-1]

    def test_height_matches_fanout_math(self):
        idx = self.make()  # 8 KB pages, ~340 entries effective
        assert idx.height == 4  # 340^4 > 1.25e9 > 340^3

    def test_small_pages_deeper(self):
        deep = self.make(page_bytes=256)
        assert deep.height > self.make().height

    def test_overrides_and_tombstones(self):
        idx = self.make()
        idx.insert(5, 99)
        assert idx.probe(5) == 99
        assert idx.delete(5)
        assert idx.probe(5) is None

    def test_insert_beyond_domain(self):
        idx = self.make(n=1000)
        idx.insert(5000, 77)
        assert idx.probe(5000) == 77
        assert idx.probe(4999) is None

    def test_range_scan_returns_ordered_values(self):
        idx = self.make(n=10_000)
        assert idx.range_scan(10, 3) == [(10, 10), (11, 11), (12, 12)]

    def test_range_scan_emission_proportional_to_n(self):
        idx = self.make(n=10_000_000)
        t_small, t_big = AccessTrace(), AccessTrace()
        idx.range_scan(100, 10, t_small)
        idx.range_scan(100, 1000, t_big)
        assert len(t_big) > len(t_small)
        assert len(t_big) < 500  # entries-only, not whole leaves

    def test_search_line_cap(self):
        capped = AnalyticBTree(
            "c", DataAddressSpace(), n_keys=BILLION, search_line_cap=2
        )
        free = AnalyticBTree("f", DataAddressSpace(), n_keys=BILLION)
        key = 987654321
        assert len(capped.probe_lines(key)) < len(free.probe_lines(key))


class TestAnalyticART:
    def make(self, n=BILLION):
        return AnalyticART("a", DataAddressSpace(), n_keys=n, key_to_value=identity_within(n))

    def test_resolution(self):
        idx = self.make()
        assert idx.probe(42) == 42
        assert idx.probe(BILLION + 1) is None

    def test_height_log256(self):
        assert self.make().inner_levels == 4  # ceil(log256 1.25e9)
        assert AnalyticART("s", DataAddressSpace(), n_keys=60_000).inner_levels == 2
        assert AnalyticART("s3", DataAddressSpace(), n_keys=70_000).inner_levels == 3

    def test_one_line_per_level_plus_leaf(self):
        idx = self.make()
        lines = idx.probe_lines(999_999_937)
        assert len(lines) == idx.inner_levels + 1

    def test_adaptive_level_sizes(self):
        # Sparse upper levels use small nodes, packed ones Node256.
        idx = self.make(n=131_072)  # 3 levels: fanouts 256, 256, 2
        assert idx.level_node_bytes[0] == 2096
        assert idx.level_node_bytes[-1] == 64

    def test_footprint_tracks_population(self):
        """The fix behind HyPer's 10MB-fits-in-LLC behaviour."""
        small = AnalyticART("s2", DataAddressSpace(), n_keys=131_072)
        total = sum(r.n_lines for r in small._level_regions) * 64
        assert total < 8 << 20  # well under the LLC

    def test_range_scan(self):
        idx = self.make(n=100_000)
        assert [v for _, v in idx.range_scan(7, 4)] == [7, 8, 9, 10]


class TestAnalyticHash:
    def make(self, n=BILLION):
        return AnalyticHash("h", DataAddressSpace(), n_keys=n, key_to_value=identity_within(n))

    def test_resolution_and_overrides(self):
        idx = self.make()
        assert idx.probe(77) == 77
        idx.insert(77, "new")
        assert idx.probe(77) == "new"
        idx.delete(77)
        assert idx.probe(77) is None

    def test_probe_lines_bucket_plus_chain(self):
        idx = self.make()
        lines = idx.probe_lines(123)
        assert 2 <= len(lines) <= 6

    def test_chain_statistics_track_load_factor(self):
        idx = self.make(n=1_000_000)
        mean = sum(len(idx.probe_lines(k)) - 1 for k in range(0, 100_000, 997))
        mean /= len(range(0, 100_000, 997))
        assert 1.0 <= mean <= 1.8

    def test_range_scan_emulation(self):
        idx = self.make(n=1000)
        assert idx.range_scan(5, 3) == [(5, 5), (6, 6), (7, 7)]

    def test_fewer_lines_than_btree(self):
        h = self.make()
        b = AnalyticBTree("b2", DataAddressSpace(), n_keys=BILLION)
        assert len(h.probe_lines(12345)) < len(b.probe_lines(12345))


class TestFidelityVsMaterialised:
    """The layout models must match the real structures at small scale."""

    N = 30_000

    # Node sizes the engines run: DBMS M's cc_btree, VoltDB, and the
    # disk engines' pages.
    NODE_BYTES = [256, 512, 2048, 8192]

    @pytest.fixture(scope="class", params=NODE_BYTES)
    def btrees(self, request):
        page_bytes = request.param
        real = BPlusTree("r", DataAddressSpace(), page_bytes=page_bytes)
        for k in range(self.N):
            real.insert(k, k)
        model = AnalyticBTree("m", DataAddressSpace(), n_keys=self.N, page_bytes=page_bytes)
        return real, model

    def test_btree_height_matches(self, btrees):
        real, model = btrees
        assert abs(model.height - real.height) <= 1

    def test_btree_lines_per_probe_match(self, btrees):
        real, model = btrees
        real_lines = []
        model_lines = []
        for k in range(100, self.N, 2971):
            t = AccessTrace()
            real.probe(k, t)
            real_lines.append(len(t))
            model_lines.append(len(model.probe_lines(k)))
        mean_real = sum(real_lines) / len(real_lines)
        mean_model = sum(model_lines) / len(model_lines)
        assert mean_model == pytest.approx(mean_real, rel=0.35)

    def test_art_height_matches(self):
        real = AdaptiveRadixTree("r", DataAddressSpace())
        for k in range(self.N):
            real.insert(k, k)
        model = AnalyticART("m", DataAddressSpace(), n_keys=self.N)
        assert abs(model.height - real.height()) <= 1

    def test_hash_lines_per_probe_match(self):
        real = HashIndex("r", DataAddressSpace(), expected_keys=self.N)
        for k in range(self.N):
            real.insert(k, k)
        model = AnalyticHash("m", DataAddressSpace(), n_keys=self.N)
        sample = range(0, self.N, 293)
        mean_real = sum(len(real.probe_path(k)) for k in sample) / len(sample)
        mean_model = sum(len(model.probe_lines(k)) for k in sample) / len(sample)
        assert mean_model == pytest.approx(mean_real, rel=0.35)


@settings(max_examples=30, deadline=None)
@given(
    n_keys=st.integers(min_value=100, max_value=10**10),
    key=st.integers(min_value=0),
)
def test_analytic_btree_paths_always_valid(n_keys, key):
    key = key % n_keys
    idx = AnalyticBTree("p", DataAddressSpace(), n_keys=n_keys)
    lines = idx.probe_lines(key)
    assert len(lines) >= idx.height
    assert len(set(lines)) == len(lines)  # distinct, dependence-ordered
    assert lines == idx.probe_lines(key)


@settings(max_examples=30, deadline=None)
@given(
    n_keys=st.integers(min_value=100, max_value=10**10),
    keys=st.lists(st.integers(min_value=0), min_size=1, max_size=20),
)
def test_analytic_overrides_shadow_population(n_keys, keys):
    idx = AnalyticHash("p", DataAddressSpace(), n_keys=n_keys, key_to_value=lambda k: k)
    for k in keys:
        idx.insert(k, ("v", k))
    for k in keys:
        assert idx.probe(k) == ("v", k)
