"""Analytic index layout models for paper-scale logical databases.

A 100 GB micro-benchmark table holds more than a billion rows
(Section 5.1.1); materialising a billion-key index in Python is not
possible, and is also unnecessary: the simulator only needs the *cache
lines a probe touches*.  For a given structure and key population those
lines are a deterministic function of (key, n_keys, node geometry), so
each model here computes the exact probe path a materialised structure
of that size would take — per-level node counts, the node on the path,
and the lines the in-node search visits.

A byte offset maps to a line by :meth:`Region.line`'s rule,
``base_line + offset // CACHE_LINE_BYTES``.  The probe paths apply it
inline from per-level geometry tuples, without its bounds check: every
node, slot and entry index is clamped to its level's size first.

The models mirror the materialised structures' emission behaviour and
are property-tested against them at small scale
(``tests/test_layout_models.py``): same tree depth, same number of
distinct lines per probe (within the structures' fill-factor noise).

Semantics are preserved too: probes of pre-populated keys return
``key_to_value(key)``; inserted/updated/deleted keys are tracked in an
override table, so an engine running on an analytic index still
executes transactions correctly.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.core.spec import CACHE_LINE_BYTES
from repro.core.trace import AccessTrace
from repro.storage.address_space import DataAddressSpace, Region
from repro.storage.btree import NODE_HEADER_BYTES, binary_search_probes
from repro.storage.buffer_pool import PAGE_BYTES
from repro.storage.hash_index import fibonacci_hash
from repro.util.stablehash import stable_hash

_TOMBSTONE = object()

KeyToValue = Callable[[object], object | None]


def _mix64(x: int) -> int:
    """SplitMix64 finaliser — cheap deterministic pseudo-randomness."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class AnalyticIndexBase:
    """Shared override/tombstone semantics for the analytic models."""

    def __init__(self, name: str, n_keys: int, key_to_value: KeyToValue | None) -> None:
        if n_keys < 1:
            raise ValueError("n_keys must be >= 1")
        self.name = name
        self.n_keys = n_keys
        self._key_to_value = key_to_value
        self._overrides: dict = {}

    def _resolve(self, key):
        value = self._overrides.get(key, _TOMBSTONE)
        if value is not _TOMBSTONE:
            return value
        if self._key_to_value is not None:
            return self._key_to_value(key)
        return None

    def _rank(self, key) -> float:
        """Position of *key* in [0, 1) within the key population.

        Dense integer keys (the benchmark populations are 0..N-1) rank
        by value, preserving range adjacency; other keys rank by hash.
        """
        if isinstance(key, int) and 0 <= key < self.n_keys:
            return key / self.n_keys
        return _mix64(stable_hash(key)) / 2**64

    # -- operations ------------------------------------------------------------------

    # Whether a delete rewrites the entry in the probe's last line.
    _DELETE_STORES = False

    def probe_lines(self, key) -> list[int]:  # pragma: no cover - abstract
        """Distinct cache lines a probe touches, in dependence order."""
        raise NotImplementedError

    def _emit_probe(self, key, trace: AccessTrace | None, mod: int) -> list[int] | None:
        """Emit a probe's dependent loads; returns its lines (None untraced)."""
        if trace is None:
            return None
        lines = self.probe_lines(key)
        trace.load_chain(lines, mod)
        return lines

    def probe(self, key, trace: AccessTrace | None = None, mod: int = 0):
        self._emit_probe(key, trace, mod)
        return self._resolve(key)

    def insert(self, key, value, trace: AccessTrace | None = None, mod: int = 0) -> None:
        lines = self._emit_probe(key, trace, mod)
        self._overrides[key] = value
        if lines is not None:
            trace.store(lines[-1], mod)

    def delete(self, key, trace: AccessTrace | None = None, mod: int = 0) -> bool:
        lines = self._emit_probe(key, trace, mod)
        present = self._resolve(key) is not None
        self._overrides[key] = None  # None override = deleted
        if self._DELETE_STORES and lines is not None and present:
            trace.store(lines[-1], mod)
        return present


class AnalyticBTree(AnalyticIndexBase):
    """Probe-path model of :class:`~repro.storage.btree.BPlusTree`."""

    FILL_FACTOR = 0.67  # steady-state B-tree occupancy
    _DELETE_STORES = True

    def __init__(
        self,
        name: str,
        space: DataAddressSpace,
        *,
        n_keys: int,
        key_to_value: KeyToValue | None = None,
        page_bytes: int = PAGE_BYTES,
        key_bytes: int = 8,
        value_bytes: int = 8,
        search_line_cap: int | None = None,
    ) -> None:
        super().__init__(name, n_keys, key_to_value)
        self.page_bytes = page_bytes
        self.search_line_cap = search_line_cap
        self.entry_stride = key_bytes + value_bytes
        max_entries = (page_bytes - NODE_HEADER_BYTES) // self.entry_stride
        if max_entries < 2:
            raise ValueError("page too small")
        self.entries_per_node = max(2, int(max_entries * self.FILL_FACTOR))
        # Level populations, leaf level last.
        counts = [max(1, -(-n_keys // self.entries_per_node))]
        while counts[0] > 1:
            counts.insert(0, max(1, -(-counts[0] // self.entries_per_node)))
        self.level_node_counts = counts
        self.height = len(counts)
        self._level_regions: list[Region] = [
            space.region(f"abtree:{name}:L{i}", n * page_bytes)
            for i, n in enumerate(counts)
        ]
        # (node count, first line) per level, root first.
        self._levels = tuple(
            (count, region.base_line) for count, region in zip(counts, self._level_regions)
        )
        # In-node search target -> lines past the node's first that the
        # binary search touches.  At most entries_per_node entries.
        self._search_offsets: dict[int, tuple[int, ...]] = {}

    # -- path computation --------------------------------------------------------

    def _search_lines(self, target: int) -> tuple[int, ...]:
        """Line offsets (from the node's first line) a binary search for
        entry *target* adds, in visit order, deduplicated and capped."""
        offsets = self._search_offsets.get(target)
        if offsets is None:
            seen = {0}
            found = []
            cap = self.search_line_cap
            for idx in binary_search_probes(self.entries_per_node, target):
                offset = (NODE_HEADER_BYTES + idx * self.entry_stride) // CACHE_LINE_BYTES
                if offset not in seen:
                    if cap is not None and len(seen) > cap:
                        break
                    seen.add(offset)
                    found.append(offset)
            offsets = self._search_offsets[target] = tuple(found)
        return offsets

    def probe_lines(self, key) -> list[int]:
        """Distinct cache lines a probe touches, in dependence order."""
        frac = self._rank(key)
        page_bytes = self.page_bytes
        entries = self.entries_per_node
        lines: list[int] = []
        for count, first_line in self._levels:
            node_idx = int(frac * count)
            if node_idx >= count:
                node_idx = count - 1
            base = first_line + node_idx * page_bytes // CACHE_LINE_BYTES
            lines.append(base)
            # Position within the node: the fractional remainder.
            target = int((frac * count - node_idx) * entries)
            if target >= entries:
                target = entries - 1
            lines.extend([base + offset for offset in self._search_lines(target)])
        return lines

    def hot_regions(self) -> list[tuple[int, int]]:
        """(base_line, n_lines) per level, root first (cache prewarm)."""
        return [(r.base_line, r.n_lines) for r in self._level_regions]

    def range_scan(
        self,
        key,
        n: int,
        trace: AccessTrace | None = None,
        mod: int = 0,
        *,
        values: Callable[[int], object] | None = None,
    ) -> list:
        """Scan *n* entries from *key* onward.

        Emits the initial probe plus a sequential walk over the leaf
        level (leaves are rank-adjacent).  Returned values come from
        dense-int key succession when possible, else from *values*.
        """
        self._emit_probe(key, trace, mod)
        if trace is not None and n > 1:
            # Stream only the lines the n scanned entries occupy, plus a
            # header line per crossed leaf (leaves are rank-adjacent).
            frac = self._rank(key)
            leaf_region = self._level_regions[-1]
            leaf_count = self.level_node_counts[-1]
            start_leaf = min(leaf_count - 1, int(frac * leaf_count))
            span_lines = -(-n * self.entry_stride // CACHE_LINE_BYTES)
            span_lines += n // self.entries_per_node + 1
            first = leaf_region.line(start_leaf * self.page_bytes)
            span_lines = min(span_lines, leaf_region.end_line - first)
            trace.load_run(first, span_lines, mod)
        out = []
        if isinstance(key, int):
            for k in range(key, min(key + n, self.n_keys)):
                value = self._resolve(k)
                if value is not None:
                    out.append((k, value))
        elif values is not None:
            out = [values(i) for i in range(n)]
        return out


class AnalyticART(AnalyticIndexBase):
    """Probe-path model of :class:`~repro.storage.art.AdaptiveRadixTree`.

    For a dense population 0..N-1 of big-endian integer keys, path
    compression strips the leading zero bytes and every remaining level
    is radix-256, so a probe visits ``ceil(log256 N)`` inner nodes plus
    a leaf — the adaptive-compact-depth behaviour of HyPer's index.
    """

    LEAF_BYTES = 32
    _NODE_SIZES = ((4, 64), (16, 176), (48, 704), (256, 2096))

    def __init__(
        self,
        name: str,
        space: DataAddressSpace,
        *,
        n_keys: int,
        key_to_value: KeyToValue | None = None,
    ) -> None:
        super().__init__(name, n_keys, key_to_value)
        self.inner_levels = max(1, math.ceil(math.log(max(2, n_keys), 256)))
        counts = [min(n_keys, 256**i) for i in range(self.inner_levels)]
        self.level_node_counts = counts
        # Adaptive node kinds: a level whose nodes have few children uses
        # the small node types, exactly like the materialised ART.
        self.level_node_bytes: list[int] = []
        for i, count in enumerate(counts):
            below = counts[i + 1] if i + 1 < len(counts) else n_keys
            fanout = max(2, -(-below // count))
            self.level_node_bytes.append(self._node_bytes_for(fanout))
        self._level_regions: list[Region] = [
            space.region(f"aart:{name}:L{i}", max(1, n) * nb)
            for i, (n, nb) in enumerate(zip(counts, self.level_node_bytes))
        ]
        self._leaf_region = space.region(f"aart:{name}:leaves", n_keys * self.LEAF_BYTES)
        self.height = self.inner_levels + 1
        self._leaf_line = self._leaf_region.base_line
        # (node count, node bytes, first line, key-byte shift, last slot
        # offset) per inner level, root first.
        self._levels = tuple(
            (count, node_bytes, region.base_line, 8 * (self.inner_levels - 1 - level), node_bytes - 8)
            for level, (count, node_bytes, region) in enumerate(
                zip(counts, self.level_node_bytes, self._level_regions)
            )
        )

    @classmethod
    def _node_bytes_for(cls, fanout: int) -> int:
        for capacity, size in cls._NODE_SIZES:
            if fanout <= capacity:
                return size
        return cls._NODE_SIZES[-1][1]

    def probe_lines(self, key) -> list[int]:
        """Distinct cache lines a probe touches, in dependence order."""
        frac = self._rank(key)
        n_keys = self.n_keys
        key_scaled = int(frac * n_keys)
        lines: list[int] = []
        for count, node_bytes, first_line, shift, last_slot in self._levels:
            # Pointer-tagged descent: one load per node, at the child
            # slot for large nodes (header is in the same line for the
            # small kinds).
            node_idx = int(frac * count)
            if node_idx >= count:
                node_idx = count - 1
            slot_off = 16 + ((key_scaled >> shift) & 0xFF) * 8
            if slot_off > last_slot:
                slot_off = last_slot
            lines.append(first_line + (node_idx * node_bytes + slot_off) // CACHE_LINE_BYTES)
        leaf_idx = key_scaled if key_scaled < n_keys else n_keys - 1
        lines.append(self._leaf_line + leaf_idx * self.LEAF_BYTES // CACHE_LINE_BYTES)
        return lines

    def range_scan(self, key, n: int, trace: AccessTrace | None = None, mod: int = 0):
        """Ordered scan of *n* entries (leaves are rank-adjacent)."""
        self._emit_probe(key, trace, mod)
        if trace is not None and n > 1:
            frac = self._rank(key)
            start_leaf = min(self.n_keys - 1, int(frac * self.n_keys))
            first = self._leaf_region.line(start_leaf * self.LEAF_BYTES)
            n_lines = -(-n * self.LEAF_BYTES // CACHE_LINE_BYTES)
            n_lines = min(n_lines, self._leaf_region.end_line - first)
            trace.load_run(first, n_lines, mod)
        out = []
        if isinstance(key, int):
            for k in range(key, min(key + n, self.n_keys)):
                value = self._resolve(k)
                if value is not None:
                    out.append((k, value))
        return out

    def hot_regions(self) -> list[tuple[int, int]]:
        """(base_line, n_lines) per inner level, root first, then leaves."""
        regions = self._level_regions + [self._leaf_region]
        return [(r.base_line, r.n_lines) for r in regions]


class AnalyticHash(AnalyticIndexBase):
    """Probe-path model of :class:`~repro.storage.hash_index.HashIndex`.

    Chain lengths follow the Poisson collision statistics of the load
    factor, assigned deterministically per key, so the average probe
    touches ``1 + load_factor/2``-ish entry lines like the materialised
    table does.
    """

    ENTRY_BYTES = 32
    SLOT_BYTES = 8
    height = 2  # bucket slot + chain entry

    def __init__(
        self,
        name: str,
        space: DataAddressSpace,
        *,
        n_keys: int,
        key_to_value: KeyToValue | None = None,
        load_factor: float = 0.75,
    ) -> None:
        super().__init__(name, n_keys, key_to_value)
        self.load_factor = load_factor
        self.n_buckets = max(64, int(n_keys / load_factor))
        self._bucket_region = space.region(
            f"ahash:{name}:buckets", self.n_buckets * self.SLOT_BYTES
        )
        self._entry_region = space.region(
            f"ahash:{name}:entries", max(n_keys, 1) * self.ENTRY_BYTES
        )

    def _chain_position(self, key_hash: int) -> int:
        """How many chain entries precede the entry of the key hashing to
        *key_hash* (0-based).

        With load factor a, P(position >= 1) ~ a/2 under Poisson-
        distributed bucket occupancy; we threshold a per-key hash.
        """
        h = _mix64(key_hash ^ 0xC0FFEE)
        u = h / 2**64
        p_extra = self.load_factor / 2
        position = 0
        while u < p_extra**(position + 1) and position < 4:
            position += 1
        return position

    def probe_lines(self, key) -> list[int]:
        """Distinct cache lines a probe touches, in dependence order."""
        h = stable_hash(key)
        bucket = fibonacci_hash(h, self.n_buckets)
        lines = [self._bucket_region.base_line + bucket * self.SLOT_BYTES // CACHE_LINE_BYTES]
        # Entry addresses are insertion-ordered, i.e. uncorrelated with
        # the bucket: place them pseudo-randomly in the entry region.
        entry_base = self._entry_region.base_line
        for i in range(self._chain_position(h) + 1):
            entry_idx = _mix64(h + i * 0x5851F42D) % self.n_keys
            lines.append(entry_base + entry_idx * self.ENTRY_BYTES // CACHE_LINE_BYTES)
        return lines

    def range_scan(self, key, n: int, trace: AccessTrace | None = None, mod: int = 0):
        """Scan emulation: hash indexes cannot scan in key order, so the
        engine probes successive dense keys individually (what a system
        with only a hash primary index does for small ranges)."""
        out = []
        if isinstance(key, int):
            for k in range(key, key + n):
                value = self.probe(k, trace, mod)
                if value is not None:
                    out.append((k, value))
        return out

    def hot_regions(self) -> list[tuple[int, int]]:
        """(base_line, n_lines) of the bucket array, then the entries."""
        return [
            (self._bucket_region.base_line, self._bucket_region.n_lines),
            (self._entry_region.base_line, self._entry_region.n_lines),
        ]
