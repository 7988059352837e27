"""Set-associative cache unit tests."""

import pytest

from repro.core.cache import SetAssociativeCache
from repro.core.spec import CacheSpec


def small_cache(n_sets=4, assoc=2) -> SetAssociativeCache:
    spec = CacheSpec("test", n_sets * assoc * 64, assoc, miss_penalty_cycles=8)
    return SetAssociativeCache(spec)


class TestBasics:
    def test_first_access_misses_then_hits(self):
        c = small_cache()
        assert not c.lookup(100)
        assert c.lookup(100)
        assert c.stats.accesses == 2
        assert c.stats.hits == 1
        assert c.stats.misses == 1

    def test_distinct_sets_do_not_conflict(self):
        c = small_cache(n_sets=4, assoc=2)
        for line in range(4):  # one line per set
            assert not c.lookup(line)
        for line in range(4):
            assert c.lookup(line)

    def test_miss_ratio(self):
        c = small_cache()
        c.lookup(1)
        c.lookup(1)
        c.lookup(1)
        assert c.stats.miss_ratio == pytest.approx(1 / 3)

    def test_empty_stats(self):
        c = small_cache()
        assert c.stats.miss_ratio == 0.0
        assert c.resident_lines() == 0


class TestLRU:
    def test_eviction_order_is_lru(self):
        c = small_cache(n_sets=1, assoc=2)
        c.lookup(0)
        c.lookup(1)
        c.lookup(0)  # refresh 0 -> 1 is now LRU
        c.lookup(2)  # evicts 1
        assert c.lookup(0)
        assert not c.lookup(1)

    def test_associativity_limit(self):
        c = small_cache(n_sets=1, assoc=4)
        for line in range(4):
            c.lookup(line)
        assert c.resident_lines() == 4
        c.lookup(4)
        assert c.resident_lines() == 4
        assert c.stats.evictions == 1

    def test_cyclic_overflow_always_misses(self):
        # The LRU worst case: cycling through assoc+1 lines of one set.
        c = small_cache(n_sets=1, assoc=2)
        for _ in range(5):
            for line in range(3):
                c.lookup(line)
        assert c.stats.hits == 0

    def test_fill_respects_capacity(self):
        c = small_cache(n_sets=1, assoc=2)
        for line in range(5):
            c.fill(line)
        assert c.resident_lines() == 2


class TestWritesAndInvalidation:
    def test_write_marks_dirty_and_hits(self):
        # Stores and loads share one lookup; a line carries no dirty state.
        c = small_cache()
        c.lookup(7)
        assert c.lookup(7)
        assert c._sets[7 % c.n_sets] == {7: None}

    def test_invalidate_present(self):
        c = small_cache()
        c.lookup(3)
        assert c.invalidate(3)
        assert not c.contains(3)
        assert c.stats.invalidations == 1

    def test_invalidate_absent_is_noop(self):
        c = small_cache()
        assert not c.invalidate(3)
        assert c.stats.invalidations == 0

    def test_contains_does_not_touch_stats(self):
        c = small_cache()
        c.lookup(5)
        before = c.stats.accesses
        assert c.contains(5)
        assert not c.contains(6)
        assert c.stats.accesses == before

    def test_flush_empties(self):
        c = small_cache()
        for line in range(8):
            c.lookup(line)
        c.flush()
        assert c.resident_lines() == 0
        assert not c.lookup(0)  # cold again

    def test_stats_reset(self):
        c = small_cache()
        c.lookup(1)
        c.stats.reset()
        assert c.stats.accesses == 0
        assert c.stats.misses == 0

    def test_fill_is_not_an_access(self):
        c = small_cache()
        c.fill(9)
        assert c.stats.accesses == 0
        assert c.lookup(9)  # resident


class TestFillRegions:
    @pytest.mark.parametrize("regions", [[(22, 5, -2)], [(22, 5, -2), (18, 1, 1)]])
    def test_regions_that_step_back_match_per_line_fills(self, regions):
        # Line 18 is in both regions of the second case: a backward span
        # must count as overlapping, or the cold skip path, which does
        # not probe, would evict it to refill it.
        fast, slow = small_cache(), small_cache()
        fast.fill_regions(regions)
        for base, count, step in regions:
            for i in range(count):
                slow.fill(base + i * step)
        assert [list(s) for s in fast._sets] == [list(s) for s in slow._sets]
        assert fast.stats == slow.stats
