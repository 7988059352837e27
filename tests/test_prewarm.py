"""Differential tests for the LLC prewarm fast path.

``SetAssociativeCache.fill_regions`` inlines the per-line fill loop and,
from an empty cache with disjoint regions, skips the lines a region
evicts itself.  The reference is the plain loop of ``fill`` calls the
prewarm used to make (``fill`` itself is model-checked in
``test_cache_modelcheck.py``).  Equal means the same set contents, the
same LRU order, and the same ``CacheStats``.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.figures.common import TPC_DB_BYTES, engine_config_for
from repro.bench.parallel import workload_spec
from repro.bench.runner import prewarm_llc, prewarm_picks
from repro.core.cache import SetAssociativeCache
from repro.core.machine import Machine
from repro.core.spec import CacheSpec
from repro.engines.registry import ALL_SYSTEMS, make_engine


def reference_fill(cache: SetAssociativeCache, regions) -> None:
    for base, count, step in regions:
        for i in range(count):
            cache.fill(base + i * step)


def state(cache: SetAssociativeCache):
    """Set contents in LRU order, plus the counters."""
    return [list(s.items()) for s in cache._sets], asdict(cache.stats)


def twin_caches(n_sets: int, assoc: int, warm: list[int]):
    spec = CacheSpec("t", n_sets * assoc * 64, assoc, miss_penalty_cycles=8)
    caches = SetAssociativeCache(spec), SetAssociativeCache(spec)
    for cache in caches:
        for line in warm:
            cache.lookup(line)
    return caches


n_sets_st = st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16])
assoc_st = st.integers(min_value=1, max_value=4)
# Steps 1-12 against the set counts above: some share factors with
# n_sets (step 4 on 8 sets lands on 2 of them), some are coprime.
region_st = st.tuples(
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=1, max_value=120),
    st.integers(min_value=1, max_value=12),
)
warm_st = st.lists(st.integers(min_value=0, max_value=400), max_size=60)


@st.composite
def disjoint_regions(draw):
    """Regions laid end to end with gaps, then shuffled."""
    regions, base = [], draw(st.integers(min_value=0, max_value=50))
    for gap, count, step in draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=20),
                st.integers(min_value=1, max_value=150),
                st.integers(min_value=1, max_value=12),
            ),
            max_size=5,
        )
    ):
        regions.append((base, count, step))
        base += (count - 1) * step + gap
    return draw(st.permutations(regions))


@settings(max_examples=150, deadline=None)
@given(
    regions=st.lists(region_st, max_size=6),
    n_sets=n_sets_st,
    assoc=assoc_st,
    warm=warm_st,
)
def test_matches_per_line_fill_on_any_start(regions, n_sets, assoc, warm):
    # Overlapping regions and a warm cache: the inlined
    # loop runs without the skip and must still equal fill per line.
    fast, ref = twin_caches(n_sets, assoc, warm)
    fast.fill_regions(regions)
    reference_fill(ref, regions)
    assert state(fast) == state(ref)


@settings(max_examples=150, deadline=None)
@given(regions=disjoint_regions(), n_sets=n_sets_st, assoc=assoc_st)
def test_matches_per_line_fill_from_cold(regions, n_sets, assoc):
    # Empty cache, disjoint regions: the self-evicted lines are skipped.
    fast, ref = twin_caches(n_sets, assoc, [])
    fast.fill_regions(regions)
    reference_fill(ref, regions)
    assert state(fast) == state(ref)


def test_skip_counts_self_evicted_lines_as_evictions():
    # 8 sets x 2 ways, step 2: the region lands on 4 sets (period 4),
    # so only its last 8 lines can survive; the first 92 are skipped.
    fast, ref = twin_caches(8, 2, [])
    fast.fill_regions([(0, 100, 2)])
    reference_fill(ref, [(0, 100, 2)])
    assert state(fast) == state(ref)
    assert fast.stats.evictions == 92
    assert fast.resident_lines() == 8


def test_prewarm_picks_spend_the_budget_hottest_first():
    engine = make_engine("hyper", engine_config_for("hyper", "micro"))
    workload_spec("micro", db_bytes=TPC_DB_BYTES)().setup(engine)
    picks = prewarm_picks(engine, 1000)
    assert sum(count for _, count, _ in picks) == 1000
    assert [base for base, _, _ in picks] == [
        base for base, _ in engine.hot_regions()[: len(picks)]
    ]


@pytest.mark.parametrize("kind", ["micro", "tpcc"])
@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_engine_prewarm_matches_per_line_fill(system, kind):
    # The real picks at 100 GB, first from a cold LLC, then again on the
    # warm one (the re-prewarm after a crash restart or a failover).
    engine = make_engine(system, engine_config_for(system, kind))
    workload_spec(kind, db_bytes=TPC_DB_BYTES)().setup(engine)
    machine, ref = Machine(), Machine().hierarchy.llc
    picks = prewarm_picks(engine, ref.spec.n_lines)[::-1]
    for _ in range(2):
        prewarm_llc(machine, engine)
        reference_fill(ref, picks)
        assert state(machine.hierarchy.llc) == state(ref)
