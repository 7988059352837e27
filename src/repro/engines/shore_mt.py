"""Shore-MT: the open-source disk-based storage manager [Johnson 2009].

What the paper says about it (Sections 3, 4.1.2, 4.1.3):

* it is *only* a storage manager — no query parser, optimiser or
  communication layers; benchmarks are hard-coded C++ plans through
  Shore-Kits, so its instruction stalls are significantly lower than
  the full-stack commercial DBMS D;
* it keeps the full traditional machinery: centralised two-phase
  locking, page latching, a buffer pool on the access path of every
  page touch, and ARIES-style logging;
* its B+tree uses disk-sized (8 KB) pages and is **not**
  cache-conscious, which is why it shows the highest LLC data stalls
  per transaction of all five systems (Figure 3).
"""

from __future__ import annotations

from repro.codegen.module import ENGINE, OTHER
from repro.core.trace import AccessTrace
from repro.engines.base import AbortReason, Engine, Transaction, TransactionAborted
from repro.engines.config import EngineConfig
from repro.storage.buffer_pool import BufferPool
from repro.storage.index_factory import BTREE
from repro.storage.lock_manager import LockConflict, LockManager, LockMode
from repro.storage.wal import WriteAheadLog
from repro.util.stablehash import stable_hash


class ShoreMTTransaction(Transaction):
    """2PL transaction over the Shore-MT storage manager."""

    def __init__(self, engine: "ShoreMT", trace: AccessTrace, txn_id: int, procedure: str) -> None:
        super().__init__(engine, trace, txn_id, procedure)
        self._tables_locked: set[str] = set()
        # Before-images for ARIES-style rollback: (kind, table, ...).
        self._undo: list[tuple] = []
        eng = engine
        eng._txn_begin_walk(trace)
        eng._w(trace, "txn_mgr", 0.30)
        eng.wal.append(txn_id, "begin", 16, trace, eng.mods["log"])
        eng._w(trace, "log", 0.10)

    # -- internal helpers -----------------------------------------------------

    def _lock(self, resource, mode: LockMode) -> None:
        eng = self.engine
        eng._w(self.trace, "lock_mgr", 0.24)
        try:
            eng.locks.acquire(self.txn_id, resource, mode, self.trace, eng.mods["lock_mgr"])
        except LockConflict as exc:
            raise TransactionAborted(str(exc), reason=AbortReason.LOCK_CONFLICT) from exc

    def _intent_lock(self, table: str, write: bool) -> None:
        if table not in self._tables_locked:
            self._lock(("table", table), LockMode.IX if write else LockMode.IS)
            self._tables_locked.add(table)

    def _fix_index_pages(self, table_name: str, key: int) -> None:
        """Buffer-pool fix + latch for every index page on the probe path."""
        eng = self.engine
        trace = self.trace
        table = eng.table(table_name)
        for page_no in eng.index_page_path(table, key):
            eng._w(trace, "bpool", 0.11)
            eng.bpool.fix(stable_hash(table_name) & 0xFFFF, page_no, trace, eng.mods["bpool"])
            eng._w(trace, "latch", 0.28)
            eng.bpool.unfix(stable_hash(table_name) & 0xFFFF, page_no, trace, eng.mods["bpool"])

    def _fix_row_page(self, table_name: str, row_id: int) -> None:
        eng = self.engine
        table = eng.table(table_name)
        page_bytes = eng.config.page_bytes
        page_no = table.heap.row_offset(row_id) // page_bytes
        eng._w(self.trace, "bpool", 0.11)
        eng.bpool.fix(0x10000 | (stable_hash(table_name) & 0xFFFF), page_no, self.trace, eng.mods["bpool"])
        eng._w(self.trace, "latch", 0.25)
        # Slotted page: the slot array at the page head is read before
        # the tuple itself (one more dependent line on a random page).
        slot_line = table.heap.region.base_line + (page_no * page_bytes) // 64
        self.trace.load(slot_line, eng.mods["heap_code"], serial=True)
        eng.bpool.unfix(0x10000 | (stable_hash(table_name) & 0xFFFF), page_no, self.trace, eng.mods["bpool"])

    # -- operations -------------------------------------------------------------

    def read(self, table: str, key: int) -> tuple | None:
        eng = self.engine
        eng._per_statement_walk(self.trace)
        eng.stats.operations += 1
        self._intent_lock(table, write=False)
        eng._w(self.trace, "btree", 0.34)
        self._fix_index_pages(table, key)
        row_id = eng.table(table).probe(key, self.trace, eng.mods["btree"])
        eng._retire_comparisons(self.trace, table, eng.mods["btree"])
        if row_id is None:
            return None
        self._lock(("row", table, key), LockMode.S)
        self._fix_row_page(table, row_id)
        eng._w(self.trace, "heap_code", 0.24)
        return eng.table(table).heap.read(row_id, self.trace, eng.mods["heap_code"])

    def update(self, table: str, key: int, column: str, value) -> tuple:
        eng = self.engine
        eng._per_statement_walk(self.trace)
        eng.stats.operations += 1
        self._intent_lock(table, write=True)
        eng._w(self.trace, "btree", 0.34)
        self._fix_index_pages(table, key)
        row_id = eng.table(table).probe(key, self.trace, eng.mods["btree"])
        eng._retire_comparisons(self.trace, table, eng.mods["btree"])
        if row_id is None:
            raise KeyError(f"update of missing key {key} in {table!r}")
        self._lock(("row", table, key), LockMode.X)
        self._fix_row_page(table, row_id)
        eng._w(self.trace, "heap_code", 0.30)
        heap = eng.table(table).heap
        self._undo.append(("update", table, row_id, heap.read(row_id)))
        new_row = heap.update_column(row_id, column, value, self.trace, eng.mods["heap_code"])
        eng._w(self.trace, "log", 0.30)
        eng.wal.append(
            self.txn_id, "update", heap.row_bytes, self.trace, eng.mods["log"],
            payload=(table, row_id, new_row),
        )
        return new_row

    def insert(self, table: str, values: tuple, key: int | None = None) -> int:
        eng = self.engine
        eng._per_statement_walk(self.trace)
        eng.stats.operations += 1
        self._intent_lock(table, write=True)
        eng._w(self.trace, "btree", 0.38)
        eng._w(self.trace, "heap_code", 0.40)
        tbl = eng.table(table)
        row_id = tbl.insert_row(values, key, self.trace, eng.mods["heap_code"])
        self._undo.append(("insert", table, key if key is not None else row_id))
        self._lock(("row", table, key if key is not None else row_id), LockMode.X)
        self._fix_row_page(table, row_id)
        eng._w(self.trace, "log", 0.35)
        eng.wal.append(
            self.txn_id, "insert", tbl.heap.row_bytes, self.trace, eng.mods["log"],
            payload=(table, key if key is not None else row_id, row_id, tuple(values)),
        )
        return row_id

    def scan(self, table: str, key: int, n: int) -> list:
        eng = self.engine
        eng._per_statement_walk(self.trace)
        eng.stats.operations += 1
        self._intent_lock(table, write=False)
        self._lock(("range", table, key // 1024), LockMode.S)
        eng._w(self.trace, "btree", 0.30)
        self._fix_index_pages(table, key)
        tbl = eng.table(table)
        results = tbl.index.range_scan(key, n, self.trace, eng.mods["btree"])
        # One fix + short latch per visited leaf page.
        entries_per_page = max(8, eng.config.page_bytes // 16)
        for page in range(-(-max(1, n) // entries_per_page)):
            eng._w(self.trace, "bpool", 0.10)
            eng._w(self.trace, "latch", 0.20)
        out = []
        for scan_key, row_id in results:
            out.append((scan_key, tbl.heap.read(row_id, self.trace, eng.mods["heap_code"])))
        if out:
            eng._w(self.trace, "heap_code", 0.25)
        return out

    def delete(self, table: str, key: int) -> bool:
        eng = self.engine
        eng._per_statement_walk(self.trace)
        eng.stats.operations += 1
        self._intent_lock(table, write=True)
        self._lock(("row", table, key), LockMode.X)
        eng._w(self.trace, "btree", 0.36)
        self._fix_index_pages(table, key)
        tbl = eng.table(table)
        row_id = tbl.probe(key, None, eng.mods["btree"])
        present = tbl.index.delete(key, self.trace, eng.mods["btree"])
        if present:
            self._undo.append(("delete", table, key, row_id))
            eng._w(self.trace, "log", 0.30)
            eng.wal.append(
                self.txn_id, "delete", 24, self.trace, eng.mods["log"],
                payload=(table, key),
            )
        return present

    # -- completion ------------------------------------------------------------------

    def commit(self) -> None:
        self._finish()
        eng = self.engine
        eng._txn_commit_walk(self.trace)
        eng._w(self.trace, "txn_mgr", 0.25)
        eng._w(self.trace, "log", 0.25)
        eng.wal.append(self.txn_id, "commit", 24, self.trace, eng.mods["log"])
        eng._w(self.trace, "lock_mgr", 0.28)
        eng.locks.release_all(self.txn_id, self.trace, eng.mods["lock_mgr"])

    def abort(self) -> None:
        self._finish()
        eng = self.engine
        eng._w(self.trace, "txn_mgr", 0.30)
        eng._w(self.trace, "log", 0.35)  # rollback walks the log tail
        self._rollback()
        eng.wal.append(self.txn_id, "abort", 24, self.trace, eng.mods["log"])
        eng.locks.release_all(self.txn_id, self.trace, eng.mods["lock_mgr"])

    def _rollback(self) -> None:
        """Apply before-images in reverse (compensation writes)."""
        eng = self.engine
        mod = eng.mods["heap_code"]
        for entry in reversed(self._undo):
            kind = entry[0]
            if kind == "update":
                _, table, row_id, old_row = entry
                eng.table(table).heap.write(row_id, old_row, self.trace, mod)
                eng.wal.append(
                    self.txn_id, "clr", 24, self.trace, eng.mods["log"],
                    payload=("update", table, row_id, old_row),
                )
            elif kind == "insert":
                _, table, key = entry
                eng.table(table).index.delete(key, self.trace, mod)
                eng.wal.append(
                    self.txn_id, "clr", 24, self.trace, eng.mods["log"],
                    payload=("uninsert", table, key),
                )
            else:  # deleted key: restore the index entry
                _, table, key, row_id = entry
                if row_id is not None:
                    eng.table(table).index.insert(key, row_id, self.trace, mod)
                    eng.wal.append(
                        self.txn_id, "clr", 24, self.trace, eng.mods["log"],
                        payload=("undelete", table, key, row_id),
                    )
        self._undo.clear()


class ShoreMT(Engine):
    """The Shore-MT storage manager with Shore-Kits hard-coded plans."""

    system = "Shore-MT"
    default_index_kind = BTREE
    is_partitioned = False

    def __init__(self, config: EngineConfig | None = None) -> None:
        super().__init__(config)
        self.locks = LockManager("shore", self.space)
        self.bpool = BufferPool("shore", self.space, page_bytes=self.config.page_bytes)
        self.wal = WriteAheadLog("shore", self.space, buffer_bytes=2 << 20)

    def _register_modules(self) -> None:
        # Shore-Kits drives hard-coded transaction plans: the only code
        # outside the storage manager is the thin driver.
        self._module("kits", OTHER, 12, instructions_per_line=14)
        self._module("txn_mgr", ENGINE, 16, base_cpi=0.48)
        self._module("lock_mgr", ENGINE, 30, branches_per_kilo_instruction=220,
                     mispredict_rate=0.05, base_cpi=0.52)
        self._module("latch", ENGINE, 8, base_cpi=0.48)
        self._module("bpool", ENGINE, 30, branches_per_kilo_instruction=200, base_cpi=0.52)
        self._module("btree", ENGINE, 36, branches_per_kilo_instruction=210,
                     mispredict_rate=0.05, base_cpi=0.50)
        self._module("heap_code", ENGINE, 13, base_cpi=0.48)
        self._module("log", ENGINE, 18, base_cpi=0.48)

    # -- layer hooks (overridden by the full-stack DBMS D) -------------------

    def _txn_begin_walk(self, trace: AccessTrace) -> None:
        """Code outside the storage manager at transaction start."""
        self._w(trace, "kits", 0.25)

    def _txn_commit_walk(self, trace: AccessTrace) -> None:
        self._w(trace, "kits", 0.12)

    def _per_statement_walk(self, trace: AccessTrace) -> None:
        """Hard-coded plans: no per-statement SQL layer in Shore-Kits."""
        self._w(trace, "kits", 0.06)

    def index_page_path(self, table, key: int) -> list[int]:
        """Distinct page numbers an index probe fixes, root to leaf."""
        index = getattr(table, "index", None)
        if index is None:  # partitioned tables are not used by Shore-MT
            return []
        lines_per_page = max(1, self.config.page_bytes // 64)
        if hasattr(index, "probe_lines"):
            pages: list[int] = []
            for line in index.probe_lines(key):
                page = line // lines_per_page
                if not pages or pages[-1] != page:
                    pages.append(page)
            return pages
        if hasattr(index, "probe_path"):
            return [offset // self.config.page_bytes for offset in index.probe_path(key)]
        return []

    def begin(self, trace: AccessTrace | None = None, procedure: str = "adhoc") -> ShoreMTTransaction:
        if trace is None:
            trace = AccessTrace()
        return ShoreMTTransaction(self, trace, self._new_txn_id(), procedure)

    def recovery_log(self) -> WriteAheadLog:
        return self.wal

    def _aux_hot_regions(self) -> list[tuple[int, int]]:
        return [
            (self.locks._region.base_line, self.locks._region.n_lines),
            (self.bpool._pt_region.base_line, self.bpool._pt_region.n_lines),
            (self.bpool._frame_region.base_line, self.bpool._frame_region.n_lines),
        ]

    def _aux_cold_regions(self) -> list[tuple[int, int]]:
        return [(self.wal._region.base_line, self.wal._region.n_lines)]
