"""Engine framework: the abstract OLTP engine and its transaction API.

Every system under analysis implements this interface.  A workload
drives an engine exclusively through :meth:`Engine.execute`, handing it
a *transaction body* — a callable that uses the uniform
:class:`Transaction` operations (read / update / insert / scan).  The
engine executes the body for real (values returned are the stored
values; writes persist or roll back) while walking its own code modules
and data structures, so the trace it returns carries the system's
characteristic instruction and data access stream.

The five concrete engines differ exactly where the paper says they do:
component structure (outer layers vs storage manager), concurrency
control, index structures and compilation (Sections 2.1, 3).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro import obs
from repro.codegen.compiler import TransactionCompiler
from repro.codegen.layout import CodeLayout
from repro.codegen.module import CodeModule
from repro.codegen.walker import CodeWalker
from repro.core.trace import AccessTrace
from repro.engines.common import EngineTable, TableSpec
from repro.engines.config import EngineConfig
from repro.storage.address_space import DataAddressSpace
from repro.util.backoff import capped_backoff


class AbortReason:
    """Structured abort taxonomy (who killed the transaction)."""

    LOCK_CONFLICT = "lock-conflict"
    VALIDATION = "validation"
    INJECTED = "injected-fault"
    USER = "user-abort"
    UNSPECIFIED = "unspecified"


class TransactionAborted(Exception):
    """Raised inside a transaction body when the engine must abort.

    The engine's execute loop rolls back and retries; the aborted
    attempt's trace events remain (wasted work is real work).
    """

    def __init__(self, message: str = "", reason: str = AbortReason.UNSPECIFIED) -> None:
        super().__init__(message)
        self.reason = reason


class UserAbort(Exception):
    """A benchmark-mandated rollback (TPC-C's 1% NewOrder aborts).

    Unlike :class:`TransactionAborted` it is not retried.
    """


# Transaction outcomes recorded by Engine.execute (Engine.last_outcome).
COMMITTED = "committed"
USER_ABORTED = "user-aborted"
RETRIES_EXHAUSTED = "retries-exhausted"

# Simulated exponential-backoff spin before retry k: BASE * 2**(k-1)
# cycles, capped.  Accounted on EngineStats, not emitted into the trace:
# the paper's methodology measures the work the core performs, and a
# backoff spin retires no instructions worth modelling.
BACKOFF_BASE_CYCLES = 500.0
BACKOFF_CAP_CYCLES = BACKOFF_BASE_CYCLES * 64


@dataclass
class EngineStats:
    commits: int = 0
    aborts: int = 0
    retries_exhausted: int = 0
    operations: int = 0
    user_aborts: int = 0
    backoff_cycles: float = 0.0
    commits_by_procedure: dict = field(default_factory=dict)
    aborts_by_procedure: dict = field(default_factory=dict)
    retries_by_procedure: dict = field(default_factory=dict)
    backoff_by_procedure: dict = field(default_factory=dict)
    aborts_by_reason: dict = field(default_factory=dict)

    def record_commit(self, procedure: str) -> None:
        self.commits += 1
        self.commits_by_procedure[procedure] = self.commits_by_procedure.get(procedure, 0) + 1

    def record_abort(self, procedure: str, reason: str) -> None:
        self.aborts += 1
        self.aborts_by_procedure[procedure] = self.aborts_by_procedure.get(procedure, 0) + 1
        self.aborts_by_reason[reason] = self.aborts_by_reason.get(reason, 0) + 1

    def record_retry(self, procedure: str, backoff_cycles: float) -> None:
        self.retries_by_procedure[procedure] = self.retries_by_procedure.get(procedure, 0) + 1
        self.backoff_cycles += backoff_cycles
        self.backoff_by_procedure[procedure] = (
            self.backoff_by_procedure.get(procedure, 0.0) + backoff_cycles
        )

    def merge(self, other: "EngineStats") -> None:
        """Accumulate *other* into self (chaos runs sum across restarts)."""
        self.commits += other.commits
        self.aborts += other.aborts
        self.retries_exhausted += other.retries_exhausted
        self.operations += other.operations
        self.user_aborts += other.user_aborts
        self.backoff_cycles += other.backoff_cycles
        for mine, theirs in (
            (self.commits_by_procedure, other.commits_by_procedure),
            (self.aborts_by_procedure, other.aborts_by_procedure),
            (self.retries_by_procedure, other.retries_by_procedure),
            (self.backoff_by_procedure, other.backoff_by_procedure),
            (self.aborts_by_reason, other.aborts_by_reason),
        ):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value


class Transaction(ABC):
    """Uniform transactional operations over an engine's tables."""

    def __init__(self, engine: "Engine", trace: AccessTrace, txn_id: int, procedure: str) -> None:
        self.engine = engine
        self.trace = trace
        self.txn_id = txn_id
        self.procedure = procedure
        self.done = False
        # Undo entries, oldest first: ("update", table, row_id, old_row),
        # ("insert", table, key) or ("delete", table, key, row_id).
        self.undo: list[tuple] = []

    # -- operations (implemented per engine) ---------------------------------

    @abstractmethod
    def read(self, table: str, key: int) -> tuple | None:
        """Point read via the primary index; None if the key is absent."""

    @abstractmethod
    def update(self, table: str, key: int, column: str, value) -> tuple:
        """Read-modify-write one column; returns the new row."""

    @abstractmethod
    def insert(self, table: str, values: tuple, key: int | None = None) -> int:
        """Insert a row (appended); returns its row id."""

    @abstractmethod
    def scan(self, table: str, key: int, n: int) -> list:
        """Ordered scan of up to *n* entries starting at *key*."""

    @abstractmethod
    def delete(self, table: str, key: int) -> bool:
        """Remove *key* from the table's index; True if it was present."""

    @abstractmethod
    def commit(self) -> None: ...

    @abstractmethod
    def abort(self) -> None: ...

    def _finish(self) -> None:
        if self.done:
            raise RuntimeError("transaction already finished")
        self.done = True

    # -- shared plumbing ---------------------------------------------------------

    def _probe(self, table: str, key: int, mod: int) -> int | None:
        """Primary-index probe plus its wide-key comparison work."""
        eng = self.engine
        row_id = eng.tables[table].probe(key, self.trace, mod)
        eng._retire_comparisons(self.trace, table, mod)
        return row_id

    def _before_image(self, table: str, row_id: int) -> tuple:
        """Read *row_id*'s current row (untraced) and keep it for undo."""
        old_row = self.engine.tables[table].heap.read(row_id)
        self.undo.append(("update", table, row_id, old_row))
        return old_row

    def _roll_back(self, mod: int, clr_log=None, clr_mod: int = 0) -> None:
        """Apply :attr:`undo` newest first, walking data as *mod*.  With
        *clr_log* (ARIES), each step is followed by the compensation record
        ``(update|uninsert|undelete, *entry[1:])`` that recovery's
        ``_apply_clr`` parses."""
        eng = self.engine
        trace = self.trace
        for entry in reversed(self.undo):
            kind, table = entry[0], entry[1]
            if kind == "update":
                _, _, row_id, old_row = entry
                eng.table(table).heap.write(row_id, old_row, trace, mod)
                action = "update"
            elif kind == "insert":
                eng.table(table).delete_key(entry[2], trace, mod)
                action = "uninsert"
            else:  # deleted key: restore the index entry
                _, _, key, row_id = entry
                if row_id is None:
                    continue
                eng.table(table).insert_key(key, row_id, trace, mod)
                action = "undelete"
            if clr_log is not None:
                clr_log.append(
                    self.txn_id, "clr", 24, trace, clr_mod, payload=(action, *entry[1:])
                )
        self.undo.clear()

    # Value-log records, the payloads repro.storage.recovery._redo
    # replays.  *mod* None appends bookkeeping only (no trace events).
    # Each helper appends directly: they run on every logged write.

    def _log_update(self, log, nbytes: int, mod: int | None, table: str, row_id: int, row) -> None:
        """After-image of an updated row."""
        trace = self.trace if mod is not None else None
        log.append(self.txn_id, "update", nbytes, trace, mod or 0, payload=(table, row_id, row))

    def _log_insert(self, log, nbytes: int, mod: int | None, table: str, key, row_id: int, values):
        """An inserted row and its index key (*key* None: the row id)."""
        trace = self.trace if mod is not None else None
        payload = (table, key if key is not None else row_id, row_id, tuple(values))
        log.append(self.txn_id, "insert", nbytes, trace, mod or 0, payload=payload)

    def _log_delete(self, log, nbytes: int, mod: int | None, table: str, key: int) -> None:
        """A removed index key."""
        trace = self.trace if mod is not None else None
        log.append(self.txn_id, "delete", nbytes, trace, mod or 0, payload=(table, key))


class Engine(ABC):
    """Base class for the five analysed systems."""

    system = "abstract"
    # The Transaction subclass :meth:`begin` opens.
    transaction_class: type[Transaction]
    # Compiling engines (HyPer, DBMS M) set both: the compiler profile
    # and the interpreted modules a compiled procedure subsumes.
    compiler: TransactionCompiler | None = None
    compile_templates: tuple[CodeModule, ...] = ()
    default_index_kind = "btree"
    is_partitioned = False
    # Name of the span covering Transaction construction in execute():
    # interpreted engines parse and plan per statement; compiled engines
    # (HyPer, DBMS-M in compiled mode) override with "compile".
    begin_phase = "parse_plan"
    # Distinct lines an in-node B-tree search touches (None = the full
    # binary-search path); commercial trees with prefix truncation keep
    # the search within the first lines of the page.
    default_search_line_cap: int | None = None
    # Cache-conscious node size the engine uses when its index kind is
    # 'cc_btree' (None = the structure's own default).
    default_node_bytes: int | None = None

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config or EngineConfig()
        self.space = DataAddressSpace()
        self.layout = CodeLayout()
        self.walker = CodeWalker(self.layout)
        self.mods: dict[str, int] = {}
        self.tables: dict[str, EngineTable] = {}
        self.stats = EngineStats()
        # Fault-injection plumbing (repro.faults): the attached injector
        # and the outcome of the last execute() call.
        self.injector = None
        self.last_outcome: str | None = None
        self._cmp_instr_cache: dict[str, int] = {}
        self._trace = AccessTrace()
        self._next_txn_id = 1
        self._compiled_mods: dict[str, int] = {}
        self._register_modules()

    # -- module registration ----------------------------------------------------

    @abstractmethod
    def _register_modules(self) -> None:
        """Subclasses declare their code modules here via :meth:`_module`."""

    def _module(
        self,
        name: str,
        group: str,
        footprint_kb: float,
        *,
        instructions_per_line: float = 14.0,
        branches_per_kilo_instruction: float = 180.0,
        mispredict_rate: float = 0.04,
        base_cpi: float = 0.45,
    ) -> int:
        mod_id = self.layout.add(
            CodeModule(
                name=name,
                group=group,
                footprint_bytes=int(footprint_kb * 1024),
                instructions_per_line=instructions_per_line,
                branches_per_kilo_instruction=branches_per_kilo_instruction,
                mispredict_rate=mispredict_rate,
                base_cpi=base_cpi,
            )
        )
        self.mods[name] = mod_id
        return mod_id

    def _w(self, trace: AccessTrace, name: str, fraction: float) -> int:
        """Walk the leading *fraction* of module *name*."""
        return self.walker.run(trace, self.mods[name], fraction)

    def _wseg(self, trace: AccessTrace, name: str, start: float, end: float) -> int:
        return self.walker.run_segment(trace, self.mods[name], start, end)

    # -- table management ----------------------------------------------------------

    def index_kind_for(self, spec: TableSpec) -> str:
        return self.config.index_kind or self.default_index_kind

    def create_table(self, spec: TableSpec) -> None:
        if spec.name in self.tables:
            raise ValueError(f"table {spec.name!r} already exists")
        partitioned = self.is_partitioned and not spec.replicated
        table = EngineTable(
            spec,
            self.space,
            index_kind=self.index_kind_for(spec),
            n_partitions=self.config.n_partitions if partitioned else 1,
            node_bytes=self.config.node_bytes or self.default_node_bytes,
            search_line_cap=self.default_search_line_cap,
        )
        if self.injector is not None:
            table.injector = self.injector
        self.tables[spec.name] = table

    def create_tables(self, specs: list[TableSpec]) -> None:
        for spec in specs:
            self.create_table(spec)

    def table(self, name: str) -> EngineTable:
        return self.tables[name]

    def comparison_instructions(self, name: str) -> int:
        """Extra instructions an index probe retires for wide keys.

        Comparing two 50-byte Strings is a word-by-word loop per visited
        node, whereas two Longs compare in one instruction.  The extra
        work re-uses already-fetched lines, so wide keys *lower* the
        data stalls per kilo-instruction — the Figure 15 effect.
        """
        cached = self._cmp_instr_cache.get(name)
        if cached is not None:
            return cached
        table = self.tables[name]
        key_bytes = table.spec.schema.columns[0][1].byte_size
        words = -(-key_bytes // 8)
        if words <= 1:
            extra = 0
        else:
            extra = (words - 1) * max(2, table.height) * 11
        self._cmp_instr_cache[name] = extra
        return extra

    def _retire_comparisons(self, trace: AccessTrace, name: str, mod: int) -> None:
        # Every probe lands here: read the memo before calling to fill it.
        extra = self._cmp_instr_cache.get(name)
        if extra is None:
            extra = self.comparison_instructions(name)
        if extra:
            trace.retire(mod, extra, base_cycles=extra * 0.40)

    # -- execution ---------------------------------------------------------------------

    def begin(self, trace: AccessTrace | None = None, procedure: str = "adhoc") -> Transaction:
        """Open a transaction (harness path uses :meth:`execute` instead)."""
        if trace is None:
            trace = AccessTrace()
        return self.transaction_class(self, trace, self._new_txn_id(), procedure)

    def compiled_module(self, procedure: str) -> int:
        """The code module compiled for *procedure*, built on first use."""
        mod = self._compiled_mods.get(procedure)
        if mod is None:
            mod = self.compiler.compile(self.layout, procedure, list(self.compile_templates))
            self._compiled_mods[procedure] = mod
        return mod

    def execute(self, procedure: str, body, core_id: int = 0) -> AccessTrace:
        """Run one transaction; returns its access trace.

        Aborts (lock conflicts, validation failures) are retried up to
        the configured budget with exponential backoff accounting; the
        aborted attempts' events stay in the trace because the wasted
        work is part of what the hardware sees.  The outcome —
        COMMITTED, USER_ABORTED or RETRIES_EXHAUSTED — is recorded on
        :attr:`last_outcome` so callers can tell a commit from a
        transaction that merely ran out of retries.
        """
        trace = self._trace
        trace.clear()
        attempts = 0
        stats = self.stats
        track = f"worker{core_id}" if obs.enabled() else ""
        with obs.span(
            "execute_txn", track=track, cat="engine", system=self.system, procedure=procedure
        ) as txn_span:
            while True:
                with obs.span(self.begin_phase, track=track, cat="engine"):
                    txn = self.begin(trace, procedure)
                try:
                    if self.injector is not None:
                        self.injector.fire("txn.body", procedure=procedure, txn_id=txn.txn_id)
                    with obs.span("execute", track=track, cat="engine"):
                        body(txn)
                    with obs.span("commit", track=track, cat="engine"):
                        txn.commit()  # may abort (OCC validation failure)
                except TransactionAborted as exc:
                    reason = getattr(exc, "reason", AbortReason.UNSPECIFIED)
                    with obs.span("rollback", track=track, cat="engine", reason=reason):
                        if not txn.done:
                            txn.abort()
                    stats.record_abort(procedure, reason)
                    obs.inc("engine.aborts", system=self.system, reason=reason)
                    attempts += 1
                    if attempts > self.config.max_retries:
                        stats.retries_exhausted += 1
                        self.last_outcome = RETRIES_EXHAUSTED
                        txn_span.set(outcome=RETRIES_EXHAUSTED, attempts=attempts)
                        obs.inc("engine.retries_exhausted", system=self.system)
                        return trace
                    backoff = capped_backoff(BACKOFF_BASE_CYCLES, BACKOFF_CAP_CYCLES, attempts)
                    stats.record_retry(procedure, backoff)
                    obs.annotate(
                        "backoff", track=track, cat="engine",
                        attempt=attempts, cycles=backoff,
                    )
                    obs.observe("engine.backoff_cycles", backoff, system=self.system)
                    continue
                except UserAbort:
                    txn.abort()
                    stats.record_abort(procedure, AbortReason.USER)
                    stats.user_aborts += 1
                    self.last_outcome = USER_ABORTED
                    txn_span.set(outcome=USER_ABORTED, attempts=attempts + 1)
                    obs.inc("engine.user_aborts", system=self.system)
                    return trace
                stats.record_commit(procedure)
                self.last_outcome = COMMITTED
                txn_span.set(outcome=COMMITTED, attempts=attempts + 1)
                obs.inc("engine.commits", system=self.system, procedure=procedure)
                return trace

    def _new_txn_id(self) -> int:
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        return txn_id

    # -- fault / recovery surface -------------------------------------------------------

    def recovery_log(self):
        """The durability log recovery replays, or None if the engine
        keeps no value-logged durable history."""
        return None

    def fault_logs(self) -> list:
        """Logs that participate in fault injection (WAL points)."""
        log = self.recovery_log()
        return [log] if log is not None else []

    def attach_injector(self, injector) -> None:
        """Thread a :class:`repro.faults.FaultInjector` through this
        engine's fault surfaces: logs, lock manager, and table indexes.
        Pass ``None`` to detach."""
        self.injector = injector
        for log in self.fault_logs():
            log.injector = injector
        locks = getattr(self, "locks", None)
        if locks is not None:
            locks.injector = injector
        for table in self.tables.values():
            table.injector = injector

    def committed_row(self, table: str, row_id: int) -> tuple:
        """The engine's committed view of a row (heap by default; MVCC
        engines override to consult their version store)."""
        return self.table(table).heap.read(row_id)

    # -- prewarm support ----------------------------------------------------------------

    def hot_regions(self) -> list[tuple[int, int]]:
        """Data regions to prewarm, hottest first (see runner.prewarm).

        Small regions are the hot ones: index roots and upper levels,
        low-cardinality tables, metadata.  Sorting every table's regions
        by size (with the workload's table priority as tiebreaker)
        approximates the residency steady-state LRU converges to; log
        buffers come last — they are streams, not working set.
        """
        sized: list[tuple[int, int, tuple[int, int]]] = []
        for table in self.tables.values():
            for base, n_lines in table.hot_regions():
                sized.append((n_lines, -table.spec.warm_priority, (base, n_lines)))
        for base, n_lines in self._aux_hot_regions():
            sized.append((n_lines, 0, (base, n_lines)))
        sized.sort(key=lambda item: (item[0], item[1]))
        regions = [entry for _, _, entry in sized]
        regions.extend(self._aux_cold_regions())
        return regions

    def _aux_hot_regions(self) -> list[tuple[int, int]]:
        """Engine-private hot structures (lock table, page table, ...)."""
        return []

    def _aux_cold_regions(self) -> list[tuple[int, int]]:
        """Streaming structures: the recovery log's buffer."""
        log = self.recovery_log()
        if log is None:
            return []
        return [(log._region.base_line, log._region.n_lines)]

    def describe(self) -> str:
        parts = [f"{self.system}:"]
        for name, mod_id in self.mods.items():
            module = self.layout.module(mod_id)
            parts.append(f"  {name} [{module.group}] {module.footprint_bytes >> 10}KB")
        return "\n".join(parts)
