"""DBMS M: main-memory OLTP engine of a commercial disk-based vendor.

The paper's characterisation (Sections 3, 4.1.3, 4.2.2, 6):

* it is the in-memory engine bolted into a traditional disk-based
  product (like Hekaton-in-SQL-Server or solidDB), so everything
  *outside* the storage engine — communication, SQL front end, session
  management — is legacy code, giving DBMS M the largest instruction
  footprint of the in-memory systems; only when a transaction probes
  ~100 rows does the storage engine dominate (Figure 7);
* concurrency control is optimistic multi-versioning (no partitioning,
  no locks): reads walk version chains, commits validate the read set;
* two index structures are available — a hash index (used for the
  micro-benchmarks and TPC-B) and a cache-conscious B-tree variant
  (used for TPC-C); Figures 13/14 toggle between them;
* stored procedures are compiled "similar to, but less aggressively
  than, HyPer"; compilation can be disabled, which roughly doubles
  instruction stalls (Figure 13).
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.codegen.compiler import DBMS_M_COMPILER, TransactionCompiler
from repro.codegen.module import CodeModule, ENGINE, OTHER
from repro.core.trace import AccessTrace
from repro.engines.base import AbortReason, Engine, Transaction, TransactionAborted
from repro.engines.config import EngineConfig
from repro.storage.index_factory import HASH
from repro.storage.mvcc import MVCCStore, ValidationFailure
from repro.storage.wal import WriteAheadLog

_GC_INTERVAL = 1024  # commits between version-chain garbage collections


class DBMSMTransaction(Transaction):
    """Optimistic multi-version transaction."""

    def __init__(self, engine: "DBMSM", trace: AccessTrace, txn_id: int, procedure: str) -> None:
        super().__init__(engine, trace, txn_id, procedure)
        self.begin_ts = engine.versions.begin_timestamp()
        self._stmt_counter = 0
        self.read_set: dict = {}
        self.write_set: dict = {}
        self._inserts: list[tuple[str, tuple, int | None]] = []
        self._deletes: list[tuple[str, int]] = []
        eng = engine
        # Legacy request path: network, SQL front end, session manager.
        eng._w(trace, "comm", 0.35)
        eng._w(trace, "sql_fe", 0.45)
        eng._w(trace, "session", 0.35)
        if eng.compiled:
            self._compiled = eng.compiled_module(procedure)
            eng.walker.run_segment(trace, self._compiled, 0.0, 0.12)
        else:
            self._compiled = None
            eng._w(trace, "interp_exec", 0.30)

    # -- engine-code helpers ----------------------------------------------------

    def _engine_op_walk(self, kind: str) -> None:
        """Per-operation storage-engine code."""
        eng = self.engine
        if self._compiled is not None:
            eng.walker.run_segment(self.trace, self._compiled, 0.12, 0.30)
        else:
            # The interpreter dispatches through opcode handlers spread
            # across the executor: successive operations touch different
            # handler regions, which is what compilation flattens into
            # one short straight-line stream (Section 6.1).
            seg = self._stmt_counter % 4
            start = 0.25 * seg
            eng._wseg(self.trace, "interp_exec", start, min(1.0, start + 0.25))
            eng._w(self.trace, "interp_exec", 0.18)
            # The interpreted B-tree traversal (descend/compare/latch-free
            # retry loops) is much more code than a hash-bucket probe —
            # "instruction stalls are much higher for the B-tree index
            # ... without compilation" (Section 6.1, Figure 14).
            if self.engine.index_kind_for(None) == "cc_btree":
                eng._w(self.trace, "idx_interp", 1.0)
                eng._wseg(self.trace, "interp_exec", 0.5, 0.85)
            else:
                eng._w(self.trace, "idx_interp", 0.45)
        eng._w(self.trace, "mvcc_code", 0.10)

    _STMT_SEGMENTS = 6

    def _per_statement_outer(self) -> None:
        """Legacy per-statement overhead in the SQL layer.

        Successive statements exercise *different* slices of the legacy
        executor (cursor state machines, expression services), so a
        multi-row transaction keeps missing the L1I until the slices
        have all been touched — the paper's "dominance of the legacy
        code overhead" that only ~100-row transactions amortise
        (Sections 4.2.2, 4.2.4).
        """
        eng = self.engine
        seg = min(self._stmt_counter, self._STMT_SEGMENTS - 1)
        self._stmt_counter += 1
        start = 0.34 + 0.11 * seg
        eng._wseg(self.trace, "sql_fe", start, min(1.0, start + 0.11))
        eng._w(self.trace, "session", 0.03)

    def _data_mod(self) -> int:
        eng = self.engine
        return self._compiled if self._compiled is not None else eng.mods["idx_interp"]

    # -- operations ----------------------------------------------------------------

    def _read_visible(self, table: str, key: int) -> tuple | None:
        """Index probe + version-chain visibility (no layer walks)."""
        eng = self.engine
        if (table, key) in self.write_set:
            return self.write_set[(table, key)]
        mod = self._data_mod()
        row_id = self._probe(table, key, mod)
        if row_id is None:
            return None
        # Version-chain visibility check, then the base row.
        chained = eng.versions.read(
            (table, key), self.begin_ts, self.trace, eng.mods["mvcc_code"], default=None
        )
        # Record the *first* observed version; a later conflicting
        # commit must fail validation (non-repeatable read).
        self.read_set.setdefault((table, key), eng.versions.latest_committed_ts((table, key)))
        if chained is not None:
            return chained
        return eng.table(table).heap.read(row_id, self.trace, mod)

    def read(self, table: str, key: int) -> tuple | None:
        self.engine.stats.operations += 1
        self._per_statement_outer()
        self._engine_op_walk("read")
        return self._read_visible(table, key)

    def update(self, table: str, key: int, column: str, value) -> tuple:
        eng = self.engine
        eng.stats.operations += 1
        self._per_statement_outer()
        self._engine_op_walk("update")
        row = self._read_visible(table, key)
        if row is None:
            raise KeyError(f"update of missing key {key} in {table!r}")
        col = eng.table(table).heap.schema.column_index(column)
        new_value = value(row[col]) if callable(value) else value
        new_row = tuple(new_value if i == col else v for i, v in enumerate(row))
        self.write_set[(table, key)] = new_row
        return new_row

    def insert(self, table: str, values: tuple, key: int | None = None) -> int:
        eng = self.engine
        eng.stats.operations += 1
        self._per_statement_outer()
        self._engine_op_walk("insert")
        # Inserts materialise at commit (new version + index entry); the
        # row id is provisional but stable because appends are serial.
        heap = eng.table(table).heap
        row_id = heap.n_rows + len(self._inserts)
        self._inserts.append((table, values, key))
        return row_id

    def scan(self, table: str, key: int, n: int) -> list:
        eng = self.engine
        eng.stats.operations += 1
        self._per_statement_outer()
        self._engine_op_walk("scan")
        tbl = eng.table(table)
        mod = self._data_mod()
        results = tbl.range_scan(key, n, self.trace, mod)
        out = []
        for scan_key, row_id in results:
            self.read_set.setdefault(
                (table, scan_key), eng.versions.latest_committed_ts((table, scan_key))
            )
            chained = eng.versions.read((table, scan_key), self.begin_ts)
            row = chained if chained is not None else tbl.heap.read(row_id, self.trace, mod)
            out.append((scan_key, row))
        return out

    def delete(self, table: str, key: int) -> bool:
        eng = self.engine
        eng.stats.operations += 1
        self._per_statement_outer()
        self._engine_op_walk("delete")
        row_id = self._probe(table, key, self._data_mod())
        present = row_id is not None and (table, key) not in self._deletes
        if present:
            self.read_set[(table, key)] = eng.versions.latest_committed_ts((table, key))
            self._deletes.append((table, key))
        return present

    # -- completion ------------------------------------------------------------------

    def commit(self) -> None:
        self._finish()
        eng = self.engine
        eng._w(self.trace, "mvcc_code", 0.40)
        try:
            eng.versions.validate(
                self.txn_id, self.begin_ts, self.read_set, self.trace, eng.mods["mvcc_code"]
            )
        except ValidationFailure as exc:
            self.done = False
            raise TransactionAborted(str(exc), reason=AbortReason.VALIDATION) from exc
        commit_ts = eng.versions.begin_timestamp()
        injector = eng.injector
        # Commit is past the point of no return: injected *aborts* make
        # no sense here (crash faults still fire).
        guard = injector.suspend_aborts() if injector is not None else nullcontext()
        with guard:
            for (table, key), new_row in self.write_set.items():
                eng.versions.install(
                    (table, key), new_row, commit_ts, self.trace, eng.mods["mvcc_code"]
                )
                row_id = eng.table(table).probe(key, None, 0)
                self._log_update(
                    eng.wal, eng.table(table).heap.row_bytes, eng.mods["log"],
                    table, row_id, new_row,
                )
                eng._row_images[(table, row_id)] = tuple(new_row)
            mod = self._data_mod()
            for table, values, key in self._inserts:
                row_id = eng.table(table).insert_row(values, key, self.trace, mod)
                self._log_insert(eng.wal, 24, eng.mods["log"], table, key, row_id, values)
            for table, key in self._deletes:
                eng.table(table).delete_key(key, self.trace, mod)
                self._log_delete(eng.wal, 24, eng.mods["log"], table, key)
            eng._w(self.trace, "log", 0.25)
            eng.wal.append(self.txn_id, "commit", 16, self.trace, eng.mods["log"])
        eng._w(self.trace, "session", 0.15)
        eng._w(self.trace, "comm", 0.20)
        eng._maybe_gc()

    def abort(self) -> None:
        self._finish()
        eng = self.engine
        eng._w(self.trace, "mvcc_code", 0.25)
        eng._w(self.trace, "session", 0.12)


class DBMSM(Engine):
    """Commercial main-memory engine with a legacy SQL stack around it."""

    system = "DBMS M"
    transaction_class = DBMSMTransaction
    default_index_kind = HASH
    is_partitioned = False
    # The cache-conscious B-tree variant "similar to the Bw-tree":
    # page-sized nodes with a search confined to the first lines.
    default_node_bytes = 8192
    default_search_line_cap = 3
    compiler = TransactionCompiler(DBMS_M_COMPILER)
    compile_templates = (
        CodeModule("tpl:m_exec", ENGINE, 36 * 1024),
        CodeModule("tpl:m_index", ENGINE, 14 * 1024),
        CodeModule("tpl:m_access", ENGINE, 12 * 1024),
    )

    def __init__(self, config: EngineConfig | None = None) -> None:
        super().__init__(config)
        self.versions = MVCCStore("dbmsm", self.space)
        self.wal = WriteAheadLog("dbmsm", self.space, buffer_bytes=2 << 20)
        self._commits_since_gc = 0
        # Committed after-images by (table, row_id): updates live in the
        # version store, not the heap, so the committed view needs a map.
        self._row_images: dict[tuple[str, int], tuple] = {}
        self.begin_phase = "compile" if self.compiled else "parse_plan"

    @property
    def compiled(self) -> bool:
        """Compilation defaults to on, as in the paper's main runs."""
        return True if self.config.compilation is None else self.config.compilation

    def _register_modules(self) -> None:
        legacy = dict(
            instructions_per_line=12.5,
            branches_per_kilo_instruction=220,
            mispredict_rate=0.05,
            base_cpi=0.55,
        )
        self._module("comm", OTHER, 28, **legacy)
        self._module("sql_fe", OTHER, 52, instructions_per_line=10.5,
                     branches_per_kilo_instruction=230, mispredict_rate=0.06, base_cpi=0.55)
        self._module("session", OTHER, 28, **legacy)
        # The from-scratch in-memory engine: lean, low-branch code.
        lean = dict(instructions_per_line=15.0, branches_per_kilo_instruction=130,
                    mispredict_rate=0.03, base_cpi=0.42)
        self._module("interp_exec", ENGINE, 48, instructions_per_line=9.5,
                     branches_per_kilo_instruction=220, mispredict_rate=0.05, base_cpi=0.50)
        self._module("idx_interp", ENGINE, 14, **lean)
        self._module("mvcc_code", ENGINE, 16, **lean)
        self._module("log", ENGINE, 10, **lean)

    def recovery_log(self) -> WriteAheadLog:
        return self.wal

    def committed_row(self, table: str, row_id: int) -> tuple:
        image = self._row_images.get((table, row_id))
        return image if image is not None else self.table(table).heap.read(row_id)

    def _maybe_gc(self) -> None:
        self._commits_since_gc += 1
        if self._commits_since_gc >= _GC_INTERVAL:
            self._commits_since_gc = 0
            self.versions.garbage_collect(self.versions.begin_timestamp() - 1)

    def _aux_hot_regions(self) -> list[tuple[int, int]]:
        return [
            (self.versions._arena.region.base_line, max(1, self.versions._arena.used_bytes // 64)),
        ]
