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


class HyPerTransaction(Transaction):
    """One compiled stored-procedure invocation, serial in its partition."""

    def __init__(self, engine: "HyPerEngine", trace: AccessTrace, txn_id: int, procedure: str) -> None:
        super().__init__(engine, trace, txn_id, procedure)
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
        row_id = self._probe(table, key, self._compiled)
        if row_id is None:
            return None
        return eng.table(table).heap.read(row_id, self.trace, self._compiled)

    def update(self, table: str, key: int, column: str, value) -> tuple:
        eng = self.engine
        eng.stats.operations += 1
        self._loop_body()
        row_id = self._probe(table, key, self._compiled)
        if row_id is None:
            raise KeyError(f"update of missing key {key} in {table!r}")
        heap = eng.table(table).heap
        old_row = self._before_image(table, row_id)  # shadow copy
        new_row = heap.update_column(
            row_id, column, value, self.trace, self._compiled, old_row=old_row
        )
        # Redo logging is compiled straight into the transaction code;
        # the after-image payload makes the log replayable.
        self._log_update(eng.redo_log, heap.row_bytes, self._compiled, table, row_id, new_row)
        return new_row

    def insert(self, table: str, values: tuple, key: int | None = None) -> int:
        eng = self.engine
        eng.stats.operations += 1
        self._loop_body()
        row_id = eng.table(table).insert_row(values, key, self.trace, self._compiled)
        self.undo.append(("insert", table, key if key is not None else row_id))
        self._log_insert(eng.redo_log, 24, self._compiled, table, key, row_id, values)
        return row_id

    def scan(self, table: str, key: int, n: int) -> list:
        eng = self.engine
        eng.stats.operations += 1
        self._loop_body()
        tbl = eng.table(table)
        results = tbl.range_scan(key, n, self.trace, self._compiled)
        out = []
        for scan_key, row_id in results:
            out.append((scan_key, tbl.heap.read(row_id, self.trace, self._compiled)))
        return out

    def delete(self, table: str, key: int) -> bool:
        eng = self.engine
        eng.stats.operations += 1
        self._loop_body()
        tbl = eng.table(table)
        row_id = tbl.probe(key, None, self._compiled)
        present = tbl.delete_key(key, self.trace, self._compiled)
        if present:
            self.undo.append(("delete", table, key, row_id))
            self._log_delete(eng.redo_log, 24, self._compiled, table, key)
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
        self._roll_back(self._compiled)  # restore the shadow copies


class HyPerEngine(Engine):
    """HyPer's compiled, partitioned execution model."""

    system = "HyPer"
    transaction_class = HyPerTransaction
    default_index_kind = ART
    is_partitioned = True
    begin_phase = "compile"
    compiler = TransactionCompiler(HYPER_COMPILER)
    # The interpreted query-processing path a compiled procedure
    # subsumes: *templates* for footprint derivation — HyPer never
    # executes them, which is precisely the point of compilation.
    compile_templates = (
        CodeModule("tpl:interp_exec", ENGINE, 96 * 1024),
        CodeModule("tpl:index_interp", ENGINE, 24 * 1024),
        CodeModule("tpl:tuple_access", ENGINE, 18 * 1024),
        CodeModule("tpl:txn_logic", ENGINE, 14 * 1024),
    )

    def __init__(self, config: EngineConfig | None = None) -> None:
        super().__init__(config)
        self.redo_log = WriteAheadLog("hyper-redo", self.space, buffer_bytes=2 << 20)

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

    def recovery_log(self) -> WriteAheadLog:
        return self.redo_log
