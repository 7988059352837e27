"""Simulated data address space.

Every table, index, buffer-pool frame table, lock table and log buffer
lives at a distinct range of simulated line addresses, disjoint from
the code segment.  Addresses are virtual: only lines actually touched
cost simulator memory, so a "100 GB" table simply owns a wide range.

Two allocation styles:

* :meth:`DataAddressSpace.region` — one fixed-size region up front
  (heap tables, hash bucket arrays, log buffers);
* :class:`Arena` — bump allocation of variable-size chunks inside a
  region (index nodes, version-chain entries).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codegen.layout import CODE_SEGMENT_LINES
from repro.core.spec import CACHE_LINE_BYTES


@dataclass(frozen=True)
class Region:
    """A contiguous range of simulated memory, addressed in cache lines."""

    name: str
    base_line: int
    n_lines: int
    size_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Taken once: line() checks every offset against it.
        object.__setattr__(self, "size_bytes", self.n_lines * CACHE_LINE_BYTES)

    @property
    def end_line(self) -> int:
        return self.base_line + self.n_lines

    def line(self, byte_offset: int) -> int:
        """Line address containing *byte_offset* within the region."""
        if byte_offset < 0 or byte_offset >= self.size_bytes:
            raise ValueError(
                f"offset {byte_offset} outside region {self.name!r} ({self.size_bytes} bytes)"
            )
        return self.base_line + byte_offset // CACHE_LINE_BYTES

    def lines_for(self, byte_offset: int, size: int) -> range:
        """Line addresses covering [byte_offset, byte_offset + size)."""
        if size <= 0:
            raise ValueError("size must be positive")
        first = self.line(byte_offset)
        last = self.line(byte_offset + size - 1)
        return range(first, last + 1)


class DataAddressSpace:
    """Allocator of disjoint data regions above the code segment."""

    def __init__(self) -> None:
        self._next_line = CODE_SEGMENT_LINES
        self._regions: dict[str, Region] = {}

    def region(self, name: str, size_bytes: int) -> Region:
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        n_lines = -(-size_bytes // CACHE_LINE_BYTES)
        region = Region(name=name, base_line=self._next_line, n_lines=n_lines)
        self._next_line += n_lines
        self._regions[name] = region
        return region

    def arena(self, name: str, capacity_bytes: int = 1 << 34) -> "Arena":
        """A bump allocator inside a fresh region (default 16 GB virtual)."""
        return Arena(self.region(name, capacity_bytes))

    def get(self, name: str) -> Region:
        return self._regions[name]

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    @property
    def allocated_bytes(self) -> int:
        return (self._next_line - CODE_SEGMENT_LINES) * CACHE_LINE_BYTES


class Arena:
    """Bump allocator for variable-size objects (index nodes etc.)."""

    def __init__(self, region: Region) -> None:
        self.region = region
        self._offset = 0

    def alloc(self, size_bytes: int, *, align: int = CACHE_LINE_BYTES) -> int:
        """Allocate *size_bytes*; returns the byte offset within the region.

        Objects are line-aligned by default so each node starts on its
        own cache line (the usual allocator behaviour for index nodes).
        """
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        offset = -(-self._offset // align) * align
        if offset + size_bytes > self.region.size_bytes:
            raise MemoryError(f"arena {self.region.name!r} exhausted")
        self._offset = offset + size_bytes
        return offset

    def line_of(self, byte_offset: int) -> int:
        return self.region.line(byte_offset)

    @property
    def used_bytes(self) -> int:
        return self._offset
