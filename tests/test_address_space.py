"""Address-space allocator tests."""

import pytest

from repro.codegen.layout import CODE_SEGMENT_LINES
from repro.core.spec import CACHE_LINE_BYTES
from repro.storage.address_space import Arena, DataAddressSpace


class TestRegions:
    def test_regions_are_disjoint_and_above_code(self, space):
        a = space.region("a", 1024)
        b = space.region("b", 4096)
        assert a.base_line >= CODE_SEGMENT_LINES
        assert b.base_line >= a.end_line

    def test_line_addressing(self, space):
        r = space.region("r", 256)
        assert r.line(0) == r.base_line
        assert r.line(63) == r.base_line
        assert r.line(64) == r.base_line + 1
        assert r.n_lines == 4

    def test_line_bounds_checked(self, space):
        r = space.region("r", 128)
        with pytest.raises(ValueError):
            r.line(-1)
        with pytest.raises(ValueError, match=r"offset 128 outside region 'r' \(128 bytes\)"):
            r.line(128)

    def test_size_bytes_is_fixed_at_construction(self, space):
        r = space.region("r", 100)
        assert r.size_bytes == r.n_lines * CACHE_LINE_BYTES == 128
        assert r == type(r)(name="r", base_line=r.base_line, n_lines=r.n_lines)
        assert "size_bytes" not in repr(r)

    def test_lines_for_spans(self, space):
        r = space.region("r", 256)
        assert list(r.lines_for(60, 8)) == [r.base_line, r.base_line + 1]
        assert list(r.lines_for(0, 64)) == [r.base_line]
        with pytest.raises(ValueError):
            r.lines_for(0, 0)

    def test_duplicate_names_rejected(self, space):
        space.region("x", 64)
        with pytest.raises(ValueError):
            space.region("x", 64)

    def test_lookup_and_membership(self, space):
        r = space.region("y", 64)
        assert space.get("y") is r
        assert "y" in space
        assert "z" not in space

    def test_allocated_bytes(self, space):
        space.region("a", 100)  # rounds to 2 lines
        assert space.allocated_bytes == 2 * CACHE_LINE_BYTES

    def test_rejects_nonpositive(self, space):
        with pytest.raises(ValueError):
            space.region("bad", 0)


class TestArena:
    def test_bump_allocation_line_aligned(self, space):
        arena = space.arena("nodes", 1 << 20)
        a = arena.alloc(100)
        b = arena.alloc(100)
        assert a == 0
        assert b == 128  # 100 rounded up to the next line
        assert arena.used_bytes == 228

    def test_custom_alignment(self, space):
        arena = space.arena("fine", 1 << 20)
        arena.alloc(10, align=8)
        assert arena.alloc(10, align=8) == 16

    def test_line_of(self, space):
        arena = space.arena("n", 1 << 20)
        off = arena.alloc(64)
        assert arena.line_of(off) == arena.region.base_line

    def test_exhaustion(self, space):
        arena = Arena(space.region("tiny", 128))
        arena.alloc(64)
        arena.alloc(64)
        with pytest.raises(MemoryError):
            arena.alloc(64)

    def test_rejects_nonpositive(self, space):
        arena = space.arena("z", 1 << 20)
        with pytest.raises(ValueError):
            arena.alloc(0)
