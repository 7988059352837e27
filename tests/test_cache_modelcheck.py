"""Model-checking the set-associative cache against a reference LRU.

Hypothesis drives random access sequences through the simulator's cache
and an obviously-correct reference implementation (per-set ordered
lists); hit/miss decisions must agree exactly on every access.
"""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.core.cache import SetAssociativeCache
from repro.core.spec import CacheSpec


class ReferenceLRU:
    """Per-set LRU built on OrderedDict — the specification."""

    def __init__(self, n_sets: int, assoc: int) -> None:
        self.n_sets = n_sets
        self.assoc = assoc
        self.sets = [OrderedDict() for _ in range(n_sets)]

    def lookup(self, line: int) -> bool:
        s = self.sets[line % self.n_sets]
        if line in s:
            s.move_to_end(line)
            return True
        if len(s) >= self.assoc:
            s.popitem(last=False)
        s[line] = True
        return False

    def invalidate(self, line: int) -> bool:
        s = self.sets[line % self.n_sets]
        return s.pop(line, None) is not None


ops = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "invalidate", "fill"]),
        st.integers(min_value=0, max_value=255),
    ),
    max_size=400,
)


@settings(max_examples=60, deadline=None)
@given(ops=ops, n_sets=st.sampled_from([1, 2, 8]), assoc=st.sampled_from([1, 2, 4]))
def test_cache_agrees_with_reference_lru(ops, n_sets, assoc):
    spec = CacheSpec("mc", n_sets * assoc * 64, assoc, miss_penalty_cycles=8)
    cache = SetAssociativeCache(spec)
    reference = ReferenceLRU(n_sets, assoc)
    for op, line in ops:
        if op == "invalidate":
            assert cache.invalidate(line) == reference.invalidate(line)
        elif op == "fill":
            # fill installs without counting; reference: lookup, ignore result
            cache.fill(line)
            reference.lookup(line)
        else:
            expected = reference.lookup(line)
            assert cache.lookup(line) == expected


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(st.integers(min_value=0, max_value=600), max_size=300))
def test_cache_stats_invariants(ops):
    spec = CacheSpec("mc", 8 * 2 * 64, 2, miss_penalty_cycles=8)
    cache = SetAssociativeCache(spec)
    for line in ops:
        cache.lookup(line)
    st_ = cache.stats
    assert st_.accesses == len(ops)
    assert st_.hits + st_.misses == st_.accesses
    assert cache.resident_lines() <= spec.n_lines
    assert st_.evictions <= st_.misses
