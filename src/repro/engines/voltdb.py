"""VoltDB (Community Edition 4.8): partitioned in-memory OLTP.

Design features the paper relies on (Sections 2.1, 3, 7):

* extreme physical partitioning — one data partition per core, one
  worker thread per partition, serial execution within a partition, so
  no locks or latches at all for single-partition transactions;
* a tree index "with node size tuned to the last-level cache line
  size" [Stonebraker 2007] — cache-conscious, few lines per level;
* stored procedures dispatched through the Java front end: planning,
  transaction initiation and serialisation happen outside the C++
  execution engine (EE), which is why the time inside the engine is
  small for 1-row transactions and grows past 2x for 10/100 rows
  (Figure 7);
* no transaction compilation;
* a "single-sited" optimisation: when every transaction is known to
  touch one partition the coordination path is skipped — disabling it
  raises instruction stalls by ~60 % (Section 7's side note).

Durability is command logging (asynchronous here, per the paper's
setup) plus an in-memory undo log released at commit.
"""

from __future__ import annotations

from repro.codegen.module import ENGINE, OTHER
from repro.core.trace import AccessTrace
from repro.engines.base import Engine, Transaction
from repro.engines.config import EngineConfig
from repro.storage.index_factory import CC_BTREE
from repro.storage.wal import WriteAheadLog
from repro.util.stablehash import stable_hash


class VoltDBTransaction(Transaction):
    """Serial single-partition stored-procedure invocation."""

    def __init__(self, engine: "VoltDBEngine", trace: AccessTrace, txn_id: int, procedure: str) -> None:
        super().__init__(engine, trace, txn_id, procedure)
        self._undo_entries: list[tuple] = []
        eng = engine
        # Client request: network receive, procedure dispatch, parameter
        # deserialisation, transaction initiation in the Java layer.
        eng._w(trace, "network", 0.35)
        eng._w(trace, "java_fe", 0.50)
        eng._w(trace, "serde", 0.45)
        if not eng.config.single_sited:
            # Multi-partition path: initiate + coordinate via the MPI.
            eng._w(trace, "coordinator", 0.60)
        eng.command_log.append(txn_id, "invoke", 48, trace, eng.mods["java_fe"])

    def _enter_ee(self, table: str = "") -> None:
        """Plan-fragment dispatch into the C++ execution engine.

        Different statements execute different plan fragments; slicing
        the EE by target table models TPC-C's multi-statement procedures
        touching more executor code than the single-statement micro."""
        eng = self.engine
        eng._w(self.trace, "java_fe", 0.06)  # plan cache lookup
        seg = (stable_hash(table) & 0xFFFF) % 5
        start = 0.3 + 0.14 * seg
        eng._wseg(self.trace, "ee_exec", start, min(1.0, start + 0.14))
        eng._w(self.trace, "ee_exec", 0.15)
        # Per-statement Java stored-procedure code (distinct per table).
        jstart = 0.5 + 0.1 * seg
        eng._wseg(self.trace, "java_fe", jstart, min(1.0, jstart + 0.1))

    def read(self, table: str, key: int) -> tuple | None:
        eng = self.engine
        eng.stats.operations += 1
        self._enter_ee(table)
        eng._w(self.trace, "index_code", 0.30)
        row_id = eng.table(table).probe(key, self.trace, eng.mods["index_code"])
        eng._retire_comparisons(self.trace, table, eng.mods["index_code"])
        if row_id is None:
            return None
        eng._w(self.trace, "table_code", 0.20)
        return eng.table(table).heap.read(row_id, self.trace, eng.mods["table_code"])

    def update(self, table: str, key: int, column: str, value) -> tuple:
        eng = self.engine
        eng.stats.operations += 1
        self._enter_ee(table)
        eng._w(self.trace, "index_code", 0.30)
        row_id = eng.table(table).probe(key, self.trace, eng.mods["index_code"])
        eng._retire_comparisons(self.trace, table, eng.mods["index_code"])
        if row_id is None:
            raise KeyError(f"update of missing key {key} in {table!r}")
        # Undo record before the in-place write (serial partition: no locks).
        eng._w(self.trace, "undo", 0.40)
        self._undo_entries.append(("update", table, row_id,
                                   eng.table(table).heap.read(row_id)))
        eng.undo_log.append(self.txn_id, "undo", eng.table(table).heap.row_bytes,
                            self.trace, eng.mods["undo"])
        eng._w(self.trace, "table_code", 0.26)
        new_row = eng.table(table).heap.update_column(
            row_id, column, value, self.trace, eng.mods["table_code"]
        )
        # Command logging replays the invocation; for recovery we also
        # record the after-image (bookkeeping only: trace=None, zero
        # bytes — the invoke record above carries the logging traffic).
        eng.command_log.append(self.txn_id, "update", 0, payload=(table, row_id, new_row))
        return new_row

    def insert(self, table: str, values: tuple, key: int | None = None) -> int:
        eng = self.engine
        eng.stats.operations += 1
        self._enter_ee(table)
        eng._w(self.trace, "table_code", 0.27)
        eng._w(self.trace, "index_code", 0.30)
        row_id = eng.table(table).insert_row(values, key, self.trace, eng.mods["table_code"])
        eng._w(self.trace, "undo", 0.30)
        self._undo_entries.append(("insert", table, key if key is not None else row_id))
        eng.undo_log.append(self.txn_id, "undo-insert", 24, self.trace, eng.mods["undo"])
        eng.command_log.append(
            self.txn_id, "insert", 0,
            payload=(table, key if key is not None else row_id, row_id, tuple(values)),
        )
        return row_id

    def scan(self, table: str, key: int, n: int) -> list:
        eng = self.engine
        eng.stats.operations += 1
        self._enter_ee(table)
        eng._w(self.trace, "index_code", 0.27)
        tbl = eng.table(table)
        index = getattr(tbl, "index", None)
        if index is None:
            # Partitioned table: scan within the key's partition.
            p = tbl.partition_of(key)
            index = tbl._indexes[p]
            key = key - tbl._bases[p]
            results = index.range_scan(key, n, self.trace, eng.mods["index_code"])
            results = [(k + tbl._bases[p], v) for k, v in results]
        else:
            results = index.range_scan(key, n, self.trace, eng.mods["index_code"])
        out = []
        for scan_key, row_id in results:
            out.append((scan_key, tbl.heap.read(row_id, self.trace, eng.mods["table_code"])))
        if out:
            eng._w(self.trace, "table_code", 0.25)
        return out

    def delete(self, table: str, key: int) -> bool:
        eng = self.engine
        eng.stats.operations += 1
        self._enter_ee(table)
        eng._w(self.trace, "index_code", 0.30)
        tbl = eng.table(table)
        orig_key = key
        index = getattr(tbl, "index", None)
        if index is None:
            p = tbl.partition_of(key)
            index, key = tbl._indexes[p], key - tbl._bases[p]
        row_id = index.probe(key, None, eng.mods["index_code"])
        present = index.delete(key, self.trace, eng.mods["index_code"])
        if present:
            eng._w(self.trace, "undo", 0.30)
            self._undo_entries.append(("delete", index, key, row_id))
            eng.undo_log.append(self.txn_id, "undo-delete", 24, self.trace, eng.mods["undo"])
            eng.command_log.append(self.txn_id, "delete", 0, payload=(table, orig_key))
        return present

    def commit(self) -> None:
        self._finish()
        eng = self.engine
        # Release undo, serialise the response, reply on the wire.
        eng._w(self.trace, "undo", 0.15)
        eng._w(self.trace, "serde", 0.30)
        eng._w(self.trace, "network", 0.20)
        if not eng.config.single_sited:
            eng._w(self.trace, "coordinator", 0.35)
        eng.command_log.append(self.txn_id, "commit", 16, self.trace, eng.mods["java_fe"])

    def abort(self) -> None:
        self._finish()
        eng = self.engine
        # Abort marker for recovery classification (bookkeeping only).
        eng.command_log.append(self.txn_id, "abort", 0)
        eng._w(self.trace, "undo", 0.50)  # roll the undo log back
        mod = eng.mods["undo"]
        for entry in reversed(self._undo_entries):
            kind = entry[0]
            if kind == "update":
                _, table, row_id, old_row = entry
                eng.table(table).heap.write(row_id, old_row, self.trace, mod)
            elif kind == "insert":
                _, table, key = entry
                tbl = eng.table(table)
                index = getattr(tbl, "index", None)
                if index is None:
                    p = tbl.partition_of(key)
                    index, key = tbl._indexes[p], key - tbl._bases[p]
                index.delete(key, self.trace, mod)
            else:
                _, index, key, row_id = entry
                if row_id is not None:
                    index.insert(key, row_id, self.trace, mod)
        self._undo_entries.clear()
        eng._w(self.trace, "serde", 0.25)
        eng._w(self.trace, "network", 0.20)


class VoltDBEngine(Engine):
    """VoltDB's partitioned, serial, interpreted execution model."""

    system = "VoltDB"
    default_index_kind = CC_BTREE
    is_partitioned = True
    begin_phase = "plan_dispatch"
    # "node size tuned to the last-level cache line size" [26]
    default_node_bytes = 512

    def __init__(self, config: EngineConfig | None = None) -> None:
        super().__init__(config)
        self.command_log = WriteAheadLog("voltdb-cmd", self.space, buffer_bytes=2 << 20)
        self.undo_log = WriteAheadLog("voltdb-undo", self.space, buffer_bytes=1 << 20)

    def _register_modules(self) -> None:
        # Java front end: clean-room codebase, but JIT-compiled Java is
        # not petite — dispatch, planning stubs, txn initiation.
        java = dict(instructions_per_line=13.5, branches_per_kilo_instruction=190, base_cpi=0.50)
        self._module("network", OTHER, 15, **java)
        self._module("java_fe", OTHER, 31, **java)
        self._module("serde", OTHER, 16, **java)
        self._module("coordinator", OTHER, 28, **java)
        # The C++ execution engine: written from scratch, lean.
        ee = dict(instructions_per_line=15.0, branches_per_kilo_instruction=140,
                  mispredict_rate=0.03, base_cpi=0.42)
        self._module("ee_exec", ENGINE, 18, **ee)
        self._module("index_code", ENGINE, 11, **ee)
        self._module("table_code", ENGINE, 9, **ee)
        self._module("undo", ENGINE, 7, **ee)

    def begin(self, trace: AccessTrace | None = None, procedure: str = "adhoc") -> VoltDBTransaction:
        if trace is None:
            trace = AccessTrace()
        return VoltDBTransaction(self, trace, self._new_txn_id(), procedure)

    def partition_of(self, table: str, key: int) -> int:
        tbl = self.table(table)
        return tbl.partition_of(key) if hasattr(tbl, "partition_of") else 0

    def recovery_log(self) -> WriteAheadLog:
        return self.command_log

    def fault_logs(self) -> list[WriteAheadLog]:
        return [self.command_log, self.undo_log]

    def _aux_hot_regions(self) -> list[tuple[int, int]]:
        return [(self.undo_log._region.base_line, self.undo_log._region.n_lines)]

    def _aux_cold_regions(self) -> list[tuple[int, int]]:
        return [(self.command_log._region.base_line, self.command_log._region.n_lines)]
