"""Heap tables: row storage with sparse materialisation.

A :class:`HeapTable` owns an address region sized for its *logical* row
count (which may be billions of rows / 100 GB — addresses are virtual),
while actual Python-side values are materialised lazily: a row that was
never written reads as a deterministic generated tuple, and writes stick.
This is the substitution that lets the simulator run the paper's 100 GB
configurations: cache behaviour needs the true *addresses*, not 100 GB
of payload (DESIGN.md Section 2).

Reads and writes emit the cache-line touches of the row's slot into the
transaction trace; appends are sequential, giving History-table-style
locality (Section 5.1.1).
"""

from __future__ import annotations

from repro.core.trace import AccessTrace
from repro.storage.address_space import DataAddressSpace, Region
from repro.storage.record import Schema


class HeapTable:
    """Fixed-width-row heap file over a simulated address region."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        n_rows: int,
        space: DataAddressSpace,
        *,
        capacity_rows: int | None = None,
    ) -> None:
        if n_rows < 0:
            raise ValueError("n_rows must be >= 0")
        self.name = name
        self.schema = schema
        self.n_rows = n_rows
        # The schema's width is a sum over its columns; take it once.
        self.row_bytes = schema.row_bytes
        # 8-byte slot alignment, the usual tuple layout.
        self.slot_bytes = -(-self.row_bytes // 8) * 8
        if capacity_rows is None:
            capacity_rows = max(n_rows + (1 << 20), n_rows * 2, 1 << 20)
        self.capacity_rows = capacity_rows
        self.region: Region = space.region(f"heap:{name}", capacity_rows * self.slot_bytes)
        self._materialized: dict[int, tuple] = {}

    # -- addressing ----------------------------------------------------------

    def row_offset(self, row_id: int) -> int:
        return row_id * self.slot_bytes

    def row_lines(self, row_id: int) -> range:
        """Cache lines covering row *row_id*'s slot."""
        return self.region.lines_for(self.row_offset(row_id), self.row_bytes)

    @property
    def data_bytes(self) -> int:
        """Logical on-heap size (what "database size" means in Figure 1)."""
        return self.n_rows * self.slot_bytes

    # -- access --------------------------------------------------------------

    def _check(self, row_id: int) -> None:
        if not 0 <= row_id < self.n_rows:
            raise IndexError(f"row {row_id} out of range [0, {self.n_rows}) in {self.name!r}")

    def read(
        self,
        row_id: int,
        trace: AccessTrace | None = None,
        mod: int = 0,
        *,
        serial: bool = True,
    ) -> tuple:
        """Return the row; emits its line loads (serial: the row address
        came from a just-completed index probe)."""
        self._check(row_id)
        if trace is not None:
            lines = self.row_lines(row_id)
            # First line is on the dependence chain; the adjacent-line
            # prefetcher covers the immediate neighbour, so only every
            # second line of a wide row is a demand access.
            first = True
            for line in lines[::2]:
                trace.load(line, mod, serial=serial and first)
                first = False
        row = self._materialized.get(row_id)
        return row if row is not None else self.schema.default_row(row_id)

    def write(
        self, row_id: int, values: tuple, trace: AccessTrace | None = None, mod: int = 0
    ) -> None:
        self._check(row_id)
        self.schema.validate_row(values)
        if trace is not None:
            for line in self.row_lines(row_id):
                trace.store(line, mod)
        self._materialized[row_id] = tuple(values)

    def update_column(
        self,
        row_id: int,
        column: str,
        value,
        trace: AccessTrace | None = None,
        mod: int = 0,
    ) -> tuple:
        """Read-modify-write one column; returns the new row.

        *value* may be a callable applied to the old value (the SQL
        ``SET balance = balance + delta`` form).
        """
        col = self.schema.column_index(column)
        row = list(self.read(row_id, trace, mod))
        row[col] = value(row[col]) if callable(value) else value
        new_row = tuple(row)
        # Stores land on the lines the read just pulled in (same demand
        # stride: the prefetched neighbour absorbs the rest).
        if trace is not None:
            for line in self.row_lines(row_id)[::2]:
                trace.store(line, mod)
        self._materialized[row_id] = new_row
        return new_row

    def append(self, values: tuple, trace: AccessTrace | None = None, mod: int = 0) -> int:
        """Insert at the tail (sequential addresses -> append locality)."""
        self.schema.validate_row(values)
        if self.n_rows >= self.capacity_rows:
            raise MemoryError(f"heap {self.name!r} capacity exhausted")
        row_id = self.n_rows
        self.n_rows += 1
        self._materialized[row_id] = tuple(values)
        if trace is not None:
            for line in self.row_lines(row_id):
                trace.store(line, mod)
        return row_id

    def scan(
        self,
        start_row: int,
        n: int,
        trace: AccessTrace | None = None,
        mod: int = 0,
    ) -> list[tuple]:
        """Sequential scan of *n* rows (short loops fetching nearby lines)."""
        self._check(start_row)
        end = min(self.n_rows, start_row + n)
        if trace is not None and end > start_row:
            first_line = self.region.line(self.row_offset(start_row))
            last_line = self.region.line(
                self.row_offset(end - 1) + self.row_bytes - 1
            )
            trace.load_run(first_line, last_line - first_line + 1, mod)
        return [self.read(rid) for rid in range(start_row, end)]

    @property
    def materialized_rows(self) -> int:
        return len(self._materialized)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        gb = self.data_bytes / (1 << 30)
        return f"HeapTable({self.name!r}, rows={self.n_rows}, ~{gb:.2f}GB logical)"
