"""Set-associative cache with true-LRU replacement.

Addresses handed to the cache are *line numbers* (byte address already
shifted right by ``log2(line_bytes)``); the engines and layout models
produce line-granular streams directly, which keeps the hot simulation
loop cheap.

Each set is an insertion-ordered dict mapping ``tag -> None`` — Python
dicts preserve insertion order, so the first key is the LRU victim and a
pop/re-insert implements a move-to-MRU.  No dirty state is kept: no
counter, writeback or figure reads it, so a store touches a line
exactly as a load does.  ``s.pop(tag, 0) is None`` is the hit test.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from repro.core.spec import CacheSpec


def _disjoint(regions: list[tuple[int, int, int]]) -> bool:
    """True if no two ``(base, count, step)`` regions' line spans overlap."""
    spans = sorted(
        sorted((base, base + (count - 1) * step)) for base, count, step in regions if count > 0
    )
    return all(prev_end < start for (_, prev_end), (start, _) in zip(spans, spans[1:]))


@dataclass
class CacheStats:
    """Hit/miss/eviction/invalidation counters for one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0


class SetAssociativeCache:
    """A single cache level (e.g. one core's L1I, or the shared LLC)."""

    def __init__(self, spec: CacheSpec) -> None:
        self.spec = spec
        self.n_sets = spec.n_sets
        self.assoc = spec.associativity
        self.stats = CacheStats()
        # set index -> {tag: None}; dict order is LRU order (first = LRU)
        self._sets: list[dict[int, None]] = [{} for _ in range(self.n_sets)]

    def lookup(self, line_addr: int) -> bool:
        """Access *line_addr*; return True on hit.

        A hit refreshes LRU order; a miss allocates the line (evicting
        the LRU entry if the set is full).  Loads and stores take the
        same path: no dirty state is kept.
        """
        st = self.stats
        st.accesses += 1
        s = self._sets[line_addr % self.n_sets]
        if s.pop(line_addr, 0) is None:
            s[line_addr] = None
            st.hits += 1
            return True
        st.misses += 1
        if len(s) >= self.assoc:
            s.pop(next(iter(s)))
            st.evictions += 1
        s[line_addr] = None
        return False

    def contains(self, line_addr: int) -> bool:
        """True if the line is resident (does not touch LRU order or stats)."""
        return line_addr in self._sets[line_addr % self.n_sets]

    def fill(self, line_addr: int) -> None:
        """Install a line without counting an access (inclusive fills).

        A fill of a resident line refreshes its LRU recency, same as a
        hit — the line was touched either way.
        """
        s = self._sets[line_addr % self.n_sets]
        if s.pop(line_addr, 0) is None:
            s[line_addr] = None
            return
        if len(s) >= self.assoc:
            s.pop(next(iter(s)))
            self.stats.evictions += 1
        s[line_addr] = None

    def fill_regions(self, regions: list[tuple[int, int, int]]) -> None:
        """Fill every line of each ``(base, count, step)`` region, in order.

        Exactly ``fill(base + i * step)`` for each region in turn and
        ``i`` in ``range(count)``: the same set contents, LRU order and
        :class:`CacheStats`.  The set-dict probes are inlined and
        evictions counted once, as in the replay loop of
        :meth:`~repro.core.machine.Machine.run_trace`.

        From an empty cache with pairwise-disjoint region spans every
        fill installs a new line, so each set ends holding the last
        ``assoc`` lines that touched it.  A region's lines that share a
        set are every ``period``-th line, ``period = n_sets / gcd(step,
        n_sets)``; a line with ``assoc`` same-set successors in its own
        region is evicted by them before the region ends.  Those are
        exactly the region's first ``count - period * assoc`` lines, so
        they are skipped and counted as evictions.  The lines that are
        filled are not resident either, so they skip the probe.
        """
        sets, n_sets, assoc = self._sets, self.n_sets, self.assoc
        skip = not any(sets) and _disjoint(regions)
        evictions = 0
        for base, count, step in regions:
            if skip:
                first = max(0, count - n_sets // gcd(step, n_sets) * assoc)
                evictions += first
                for line in range(base + first * step, base + count * step, step):
                    s = sets[line % n_sets]
                    if len(s) >= assoc:
                        del s[next(iter(s))]
                        evictions += 1
                    s[line] = None
                continue
            for line in range(base, base + count * step, step):
                s = sets[line % n_sets]
                if s.pop(line, 0) is None:
                    s[line] = None
                    continue
                if len(s) >= assoc:
                    del s[next(iter(s))]
                    evictions += 1
                s[line] = None
        self.stats.evictions += evictions

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line (coherence); return True if it was present."""
        s = self._sets[line_addr % self.n_sets]
        if s.pop(line_addr, 0) is None:
            self.stats.invalidations += 1
            return True
        return False

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    def flush(self) -> None:
        """Empty the cache (cold start)."""
        for s in self._sets:
            s.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeCache({self.spec.name}, {self.spec.size_bytes >> 10}KB, "
            f"{self.assoc}-way, resident={self.resident_lines()})"
        )
