"""HyPer: compiled, partitioned, main-memory OLTP [Kemper & Neumann].

The paper's characterisation (Sections 3, 4.1.2, 4.1.3, 5.1.1):

* transactions written in HyPerScript are **compiled directly into
  machine code** [Neumann 2011] — an aggressively optimised instruction
  stream with a tiny footprint and few branches, which almost
  eliminates L1-I misses;
* the index is the Adaptive Radix Tree [Leis 2013] — adaptive compact
  node sizes, few lines per probe;
* partitioned serial execution like VoltDB (one worker per partition),
  so no locks/latches on the transaction path;
* the flip side the paper highlights: because each transaction retires
  so few instructions, HyPer performs far more random data accesses per
  unit of work — when the working set exceeds the LLC its long-latency
  data stalls per kilo-instruction are 5-10x everyone else's and its
  IPC drops below all other systems.

Each stored procedure gets one compiled code module (built by
:class:`~repro.codegen.compiler.TransactionCompiler` from the
interpreted path it replaces); per-row work re-executes the compiled
loop body, whose lines stay L1I-resident.
"""

from __future__ import annotations

from repro.codegen.compiler import HYPER_COMPILER, TransactionCompiler
from repro.codegen.module import CodeModule, ENGINE, OTHER
from repro.core.trace import AccessTrace
from repro.engines.base import Engine, Transaction
from repro.engines.config import EngineConfig
from repro.storage.index_factory import ART
from repro.storage.wal import WriteAheadLog

# The interpreted query-processing path a compiled procedure subsumes.
# These are *templates* for footprint derivation — HyPer never executes
# them, which is precisely the point of compilation.
_INTERPRETED_TEMPLATES = [
    CodeModule("tpl:interp_exec", ENGINE, 96 * 1024),
    CodeModule("tpl:index_interp", ENGINE, 24 * 1024),
    CodeModule("tpl:tuple_access", ENGINE, 18 * 1024),
    CodeModule("tpl:txn_logic", ENGINE, 14 * 1024),
]


class HyPerTransaction(Transaction):
    """One compiled stored-procedure invocation, serial in its partition."""

    def __init__(self, engine: "HyPerEngine", trace: AccessTrace, txn_id: int, procedure: str) -> None:
        super().__init__(engine, trace, txn_id, procedure)
        self._shadow: list[tuple] = []  # undo via shadow copies
        self._compiled = engine.compiled_module(procedure)
        eng = engine
        eng._w(trace, "runtime", 0.05)
        # Compiled prologue: parameter binding, partition entry.
        eng.walker.run_segment(trace, self._compiled, 0.0, 0.06)

    def _loop_body(self) -> None:
        """One iteration of the compiled per-row loop (L1I-resident)."""
        self.engine.walker.run_segment(self.trace, self._compiled, 0.12, 0.52)

    def read(self, table: str, key: int) -> tuple | None:
        eng = self.engine
        eng.stats.operations += 1
        self._loop_body()
        row_id = eng.table(table).probe(key, self.trace, self._compiled)
        eng._retire_comparisons(self.trace, table, self._compiled)
        if row_id is None:
            return None
        return eng.table(table).heap.read(row_id, self.trace, self._compiled)

    def update(self, table: str, key: int, column: str, value) -> tuple:
        eng = self.engine
        eng.stats.operations += 1
        self._loop_body()
        row_id = eng.table(table).probe(key, self.trace, self._compiled)
        eng._retire_comparisons(self.trace, table, self._compiled)
        if row_id is None:
            raise KeyError(f"update of missing key {key} in {table!r}")
        self._shadow.append(("update", table, row_id, eng.table(table).heap.read(row_id)))
        new_row = eng.table(table).heap.update_column(
            row_id, column, value, self.trace, self._compiled
        )
        # Redo logging is compiled straight into the transaction code;
        # the after-image payload makes the log replayable.
        eng.redo_log.append(
            self.txn_id, "update", eng.table(table).heap.row_bytes,
            self.trace, self._compiled,
            payload=(table, row_id, new_row),
        )
        return new_row

    def insert(self, table: str, values: tuple, key: int | None = None) -> int:
        eng = self.engine
        eng.stats.operations += 1
        self._loop_body()
        row_id = eng.table(table).insert_row(values, key, self.trace, self._compiled)
        self._shadow.append(("insert", table, key if key is not None else row_id))
        eng.redo_log.append(
            self.txn_id, "insert", 24, self.trace, self._compiled,
            payload=(table, key if key is not None else row_id, row_id, tuple(values)),
        )
        return row_id

    def scan(self, table: str, key: int, n: int) -> list:
        eng = self.engine
        eng.stats.operations += 1
        self._loop_body()
        tbl = eng.table(table)
        index = getattr(tbl, "index", None)
        if index is None:
            p = tbl.partition_of(key)
            index = tbl._indexes[p]
            results = [
                (k + tbl._bases[p], v)
                for k, v in index.range_scan(key - tbl._bases[p], n, self.trace, self._compiled)
            ]
        else:
            results = index.range_scan(key, n, self.trace, self._compiled)
        out = []
        for scan_key, row_id in results:
            out.append((scan_key, tbl.heap.read(row_id, self.trace, self._compiled)))
        return out

    def delete(self, table: str, key: int) -> bool:
        eng = self.engine
        eng.stats.operations += 1
        self._loop_body()
        tbl = eng.table(table)
        orig_key = key
        index = getattr(tbl, "index", None)
        if index is None:
            p = tbl.partition_of(key)
            index, key = tbl._indexes[p], key - tbl._bases[p]
        row_id = index.probe(key, None, self._compiled)
        present = index.delete(key, self.trace, self._compiled)
        if present:
            self._shadow.append(("delete", index, key, row_id))
            eng.redo_log.append(
                self.txn_id, "delete", 24, self.trace, self._compiled,
                payload=(table, orig_key),
            )
        return present

    def commit(self) -> None:
        self._finish()
        eng = self.engine
        # Compiled epilogue + commit record.
        eng.walker.run_segment(self.trace, self._compiled, 0.88, 1.0)
        eng.redo_log.append(self.txn_id, "commit", 16, self.trace, self._compiled)
        eng._w(self.trace, "runtime", 0.03)

    def abort(self) -> None:
        self._finish()
        eng = self.engine
        eng._w(self.trace, "runtime", 0.25)
        # Abort marker so recovery can classify this transaction without
        # waiting for end-of-log (bookkeeping only: trace=None).
        eng.redo_log.append(self.txn_id, "abort", 0)
        # Restore the shadow copies in reverse order.
        for entry in reversed(self._shadow):
            kind = entry[0]
            if kind == "update":
                _, table, row_id, old_row = entry
                eng.table(table).heap.write(row_id, old_row, self.trace, self._compiled)
            elif kind == "insert":
                _, table, key = entry
                tbl = eng.table(table)
                index = getattr(tbl, "index", None)
                if index is None:
                    p = tbl.partition_of(key)
                    index, key = tbl._indexes[p], key - tbl._bases[p]
                index.delete(key, self.trace, self._compiled)
            else:
                _, index, key, row_id = entry
                if row_id is not None:
                    index.insert(key, row_id, self.trace, self._compiled)
        self._shadow.clear()


class HyPerEngine(Engine):
    """HyPer's compiled, partitioned execution model."""

    system = "HyPer"
    default_index_kind = ART
    is_partitioned = True
    begin_phase = "compile"

    def __init__(self, config: EngineConfig | None = None) -> None:
        super().__init__(config)
        self.redo_log = WriteAheadLog("hyper-redo", self.space, buffer_bytes=2 << 20)
        self._compiler = TransactionCompiler(HYPER_COMPILER)
        self._compiled: dict[str, int] = {}

    def _register_modules(self) -> None:
        # A thin runtime is all that remains outside compiled code:
        # scheduling, memory management, log shipping.
        self._module(
            "runtime", OTHER, 14,
            instructions_per_line=15.0,
            branches_per_kilo_instruction=110,
            mispredict_rate=0.02,
            base_cpi=0.40,
        )

    def compiled_module(self, procedure: str) -> int:
        mod = self._compiled.get(procedure)
        if mod is None:
            mod = self._compiler.compile(self.layout, procedure, _INTERPRETED_TEMPLATES)
            self._compiled[procedure] = mod
        return mod

    def begin(self, trace: AccessTrace | None = None, procedure: str = "adhoc") -> HyPerTransaction:
        if trace is None:
            trace = AccessTrace()
        return HyPerTransaction(self, trace, self._new_txn_id(), procedure)

    def partition_of(self, table: str, key: int) -> int:
        tbl = self.table(table)
        return tbl.partition_of(key) if hasattr(tbl, "partition_of") else 0

    def recovery_log(self) -> WriteAheadLog:
        return self.redo_log

    def _aux_cold_regions(self) -> list[tuple[int, int]]:
        return [(self.redo_log._region.base_line, self.redo_log._region.n_lines)]
