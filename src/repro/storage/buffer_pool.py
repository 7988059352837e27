"""Buffer pool — the disk-based engines' page cache.

The paper's point about the buffer pool is not I/O (all data is
memory-resident and logging is asynchronous) but *overhead*: every page
access goes through a hash page-table probe, frame metadata, pin/unpin
reference counting and an LRU update [Harizopoulos 2008].  Those are
real data accesses (page-table buckets, frame headers) and real code
(the buffer-pool module footprint), and they are exactly what in-memory
engines delete.

Pages here are identified by (table/space id, page number); fix() pins
a frame and emits the page-table + frame-header traffic.  Since the
working set is memory-resident, fixes hit after warm-up — the cost the model charges is the metadata
traffic, matching the paper's setting.
"""

from __future__ import annotations

from repro.core.trace import AccessTrace
from repro.storage.address_space import DataAddressSpace
from repro.storage.hash_index import fibonacci_hash

PAGE_BYTES = 8192
"""Disk page size: buffer-pool frames and the disk engines' B+tree nodes."""

_FRAME_HEADER_BYTES = 64
_PT_SLOT_BYTES = 8


class BufferPoolStats:
    __slots__ = ("fixes", "hits", "misses", "evictions")

    def __init__(self) -> None:
        self.fixes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class BufferPool:
    """Frame table + hashed page table with LRU replacement."""

    def __init__(
        self,
        name: str,
        space: DataAddressSpace,
        *,
        n_frames: int = 1 << 16,
        page_bytes: int = PAGE_BYTES,
    ) -> None:
        if n_frames <= 0:
            raise ValueError("n_frames must be positive")
        self.name = name
        self.n_frames = n_frames
        self.page_bytes = page_bytes
        self._pt_region = space.region(f"bp:{name}:pagetable", 2 * n_frames * _PT_SLOT_BYTES)
        self._frame_region = space.region(
            f"bp:{name}:frames", n_frames * _FRAME_HEADER_BYTES
        )
        # page id -> frame index; dict order is LRU order.
        self._frames: dict[tuple[int, int], int] = {}
        self._pins: dict[tuple[int, int], int] = {}
        self._free: list[int] = list(range(n_frames - 1, -1, -1))
        self.stats = BufferPoolStats()

    def _emit_metadata(self, page: tuple[int, int], frame: int, trace, mod) -> None:
        if trace is None:
            return
        bucket = fibonacci_hash(hash(page), 2 * self.n_frames)
        trace.load(self._pt_region.line(bucket * _PT_SLOT_BYTES), mod, serial=True)
        # Frame header read-modify-write: pin count + LRU stamp.
        frame_line = self._frame_region.line(frame * _FRAME_HEADER_BYTES)
        trace.load(frame_line, mod, serial=True)
        trace.store(frame_line, mod)

    def fix(
        self, space_id: int, page_no: int, trace: AccessTrace | None = None, mod: int = 0
    ) -> int:
        """Pin a page; returns its frame index."""
        page = (space_id, page_no)
        self.stats.fixes += 1
        frame = self._frames.pop(page, None)
        if frame is not None:
            self.stats.hits += 1
            self._frames[page] = frame  # refresh LRU position
        else:
            self.stats.misses += 1
            frame = self._allocate_frame()
            self._frames[page] = frame
        self._pins[page] = self._pins.get(page, 0) + 1
        self._emit_metadata(page, frame, trace, mod)
        return frame

    def unfix(self, space_id: int, page_no: int, trace: AccessTrace | None = None, mod: int = 0) -> None:
        page = (space_id, page_no)
        pins = self._pins.get(page, 0)
        if pins <= 0:
            raise RuntimeError(f"unfix of unpinned page {page}")
        if pins == 1:
            del self._pins[page]
        else:
            self._pins[page] = pins - 1
        if trace is not None:
            frame = self._frames[page]
            trace.store(self._frame_region.line(frame * _FRAME_HEADER_BYTES), mod)

    def _allocate_frame(self) -> int:
        if self._free:
            return self._free.pop()
        # Evict the LRU unpinned page.
        for page, frame in self._frames.items():
            if self._pins.get(page, 0) == 0:
                del self._frames[page]
                self.stats.evictions += 1
                return frame
        raise RuntimeError("buffer pool exhausted: all frames pinned")

    def is_resident(self, space_id: int, page_no: int) -> bool:
        return (space_id, page_no) in self._frames

    @property
    def hit_ratio(self) -> float:
        return self.stats.hits / self.stats.fixes if self.stats.fixes else 0.0
