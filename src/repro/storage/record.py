"""Schemas, column types and row layout.

The micro-benchmark uses a two-column (key, value) table of either
``Long`` (8-byte) or 50-byte ``String`` columns (Sections 3 and 6.2);
the TPC tables use mixes of both.  Row byte size drives spatial
locality: a row's columns share cache lines, so wide columns re-use a
fetched line more than narrow ones — the Figure 15 effect.
"""

from __future__ import annotations

from dataclasses import dataclass

# default_value of a long column: (seed * _LONG_MULT) & _LONG_MASK.
_LONG_MULT = 0x9E3779B97F4A7C15
_LONG_MASK = 0x7FFFFFFFFFFFFFFF
# Column i of row r defaults from seed r * _ROW_SEED_STRIDE + i.
_ROW_SEED_STRIDE = 31
_ROW_LONG_MULT = _ROW_SEED_STRIDE * _LONG_MULT


@dataclass(frozen=True)
class ColumnType:
    """A fixed-width column type."""

    name: str
    byte_size: int

    def __post_init__(self) -> None:
        if self.byte_size <= 0:
            raise ValueError("byte_size must be positive")

    def default_value(self, seed: int):
        """Deterministic value for an unmaterialised row (see HeapTable)."""
        if self.name == "long":
            return (seed * _LONG_MULT) & _LONG_MASK
        text = f"v{seed:x}"
        return (text * (self.byte_size // len(text) + 1))[: self.byte_size]


LONG = ColumnType("long", 8)
"""64-bit integer column (the micro-benchmark's default type)."""


def string_type(width: int = 50) -> ColumnType:
    """Fixed-width string column (the micro-benchmark's String variant)."""
    return ColumnType(f"string{width}", width)


STRING50 = string_type(50)


@dataclass(frozen=True)
class Schema:
    """An ordered set of named, fixed-width columns plus row overhead.

    ``header_bytes`` models the per-row header (null bitmap, txn
    metadata); in-memory engines typically keep it small, disk engines
    carry slotted-page overhead — engines configure this.
    """

    name: str
    columns: tuple[tuple[str, ColumnType], ...]
    header_bytes: int = 8

    def __post_init__(self) -> None:
        # Derived once; plain attributes, so equality and repr ignore them.
        index: dict[str, int] = {}
        for i, (col_name, _) in enumerate(self.columns):
            index.setdefault(col_name, i)
        object.__setattr__(self, "_index", index)
        # Long column i of row r defaults to ((r*31 + i) * M) & MASK, which
        # is (r*31*M + i*M) & MASK exactly (ints do not overflow): an
        # all-long row needs only the i*M terms, computed here.
        all_long = all(ct.name == "long" for _, ct in self.columns)
        offsets = tuple(i * _LONG_MULT for i in range(len(self.columns)))
        object.__setattr__(self, "_long_offsets", offsets if all_long else None)

    @property
    def payload_bytes(self) -> int:
        return sum(ct.byte_size for _, ct in self.columns)

    @property
    def row_bytes(self) -> int:
        return self.header_bytes + self.payload_bytes

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    def column_index(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            raise KeyError(f"no column {name!r} in schema {self.name!r}")
        return index

    def default_row(self, row_id: int) -> tuple:
        """Deterministic contents of an unmaterialised row."""
        offsets = self._long_offsets
        if offsets is not None:
            base = row_id * _ROW_LONG_MULT
            return tuple([(base + offset) & _LONG_MASK for offset in offsets])
        return tuple(
            ct.default_value(row_id * _ROW_SEED_STRIDE + i)
            for i, (_, ct) in enumerate(self.columns)
        )

    def validate_row(self, values: tuple) -> None:
        if len(values) != self.n_columns:
            raise ValueError(
                f"schema {self.name!r} expects {self.n_columns} values, got {len(values)}"
            )


def microbench_schema(column_type: ColumnType = LONG, header_bytes: int = 8) -> Schema:
    """The paper's micro-benchmark table: (key, value), both the same type."""
    return Schema(
        name=f"micro_{column_type.name}",
        columns=(("key", column_type), ("value", column_type)),
        header_bytes=header_bytes,
    )
