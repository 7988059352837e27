"""Shared engine plumbing: table specs, engine tables, partitioning.

Workloads declare *what* tables exist (:class:`TableSpec`); each engine
decides *how* to store, index and partition them (:class:`EngineTable`)
— the disk engines use 8 KB-page B+trees, VoltDB a cache-line-tuned
tree, HyPer an ART, DBMS M a hash index or a cache-conscious B-tree
(paper Section 3, "Analyzed Systems").

Keys are dense integers ``0..n_rows-1`` for pre-populated rows (composite
TPC-C keys are encoded into that space by the workload); the identity
mapping key -> row id defines initial contents, and inserts grow the
heap beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.trace import AccessTrace
from repro.storage.address_space import DataAddressSpace
from repro.storage.heap import HeapTable
from repro.storage.index_factory import make_index
from repro.storage.layout_models import AnalyticIndexBase
from repro.storage.record import Schema


@dataclass(frozen=True)
class TableSpec:
    """A workload table, independent of any engine's storage choices."""

    name: str
    schema: Schema
    n_rows: int
    # Appended rows beyond the dense key range (History, Order...) need
    # heap headroom; workloads mark such tables.
    grows: bool = False
    # Hot tables the runner should try to keep LLC-resident first
    # (low-cardinality TPC-B Branch/Teller); bigger = hotter.
    warm_priority: int = 0
    # Replicated read-mostly tables (TPC-C Item) stay unpartitioned on
    # partitioned engines, as VoltDB replicates them to every site.
    replicated: bool = False

    def __post_init__(self) -> None:
        if self.n_rows < 1:
            raise ValueError(f"table {self.name!r} needs at least one row")

    @property
    def logical_bytes(self) -> int:
        return self.n_rows * self.schema.row_bytes


class EngineTable:
    """One engine's storage for a table: a heap plus one primary index
    per partition (VoltDB / HyPer deployment style).

    Partition *p* owns the key range ``[p*N/P, (p+1)*N/P)`` and indexes
    it by local key ``key - base``; the heap stays logically global so
    row ids equal keys across engines.  Composite TPC-C keys encode the
    warehouse in their high component, so range partitioning doubles as
    partition-by-warehouse.  An unpartitioned table is one partition
    with base 0.
    """

    # Optional FaultInjector threaded in by Engine.attach_injector.
    injector = None

    def __init__(
        self,
        spec: TableSpec,
        space: DataAddressSpace,
        *,
        index_kind: str,
        n_partitions: int = 1,
        node_bytes: int | None = None,
        search_line_cap: int | None = None,
    ) -> None:
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        self.spec = spec
        self.n_partitions = n_partitions
        self.heap = HeapTable(spec.name, spec.schema, spec.n_rows, space)
        n_rows = spec.n_rows
        self._per_part = per_part = -(-n_rows // n_partitions)
        # (base key, index) per partition.
        self._parts: list[tuple[int, AnalyticIndexBase]] = []
        for p in range(n_partitions):
            base = p * per_part
            # Pre-populated rows this partition owns; a trailing
            # partition past the table's end owns none but still lays
            # out one key slot.
            owned = min(per_part, n_rows - base)
            index = make_index(
                index_kind,
                spec.name if n_partitions == 1 else f"{spec.name}:p{p}",
                space,
                n_keys=max(1, owned),
                # Dense pre-population: local key k is row base + k while
                # the partition owns it; other keys (sparse key
                # encodings, rows past the table's end) probe as misses.
                key_to_value=lambda k, b=base, n=owned: k + b if 0 <= k < n else None,
                node_bytes=node_bytes,
                search_line_cap=search_line_cap,
            )
            self._parts.append((base, index))

    def partition_of(self, key: int) -> int:
        return min(self.n_partitions - 1, max(0, key // self._per_part))

    def _partition(self, key: int) -> tuple[int, AnalyticIndexBase]:
        """(base, index) of the partition that owns *key*."""
        if self.n_partitions == 1:
            return self._parts[0]
        return self._parts[self.partition_of(key)]

    @property
    def height(self) -> int:
        """Levels an index probe descends (partition 0's index)."""
        return self._parts[0][1].height

    def probe(self, key: int, trace: AccessTrace | None, mod: int):
        """Index probe; returns the row id or None."""
        base, index = self._partition(key)
        return index.probe(key - base, trace, mod)

    def probe_lines(self, key: int) -> list[int]:
        """Distinct cache lines a probe of *key* touches, root to leaf."""
        base, index = self._partition(key)
        return index.probe_lines(key - base)

    def range_scan(self, key: int, n: int, trace: AccessTrace | None, mod: int) -> list:
        """Up to *n* (key, row id) pairs from *key* on, within its partition."""
        base, index = self._partition(key)
        return [(k + base, row_id) for k, row_id in index.range_scan(key - base, n, trace, mod)]

    def insert_row(self, values: tuple, key: int | None, trace: AccessTrace | None, mod: int) -> int:
        if self.injector is not None:
            self.injector.fire("index.insert", table=self.spec.name, key=key)
        row_id = self.heap.append(values, trace, mod)
        self.insert_key(key if key is not None else row_id, row_id, trace, mod)
        return row_id

    def insert_key(self, key: int, row_id: int, trace: AccessTrace | None = None, mod: int = 0) -> None:
        """(Re-)point *key* at *row_id* in its partition's index."""
        base, index = self._partition(key)
        index.insert(key - base, row_id, trace, mod)

    def delete_key(self, key: int, trace: AccessTrace | None = None, mod: int = 0) -> bool:
        """Remove *key* from its partition's index; True if it was present."""
        base, index = self._partition(key)
        return index.delete(key - base, trace, mod)

    def hot_regions(self) -> list[tuple[int, int]]:
        """(base_line, n_lines) ranges, hottest first, for cache prewarm."""
        regions = [region for _, index in self._parts for region in index.hot_regions()]
        regions.append((self.heap.region.base_line, max(1, self.heap.data_bytes // 64)))
        return regions
