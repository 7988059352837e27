"""Log replay: rebuild committed state from the write-ahead log.

The engines value-log every update/insert/delete plus compensation
records (CLRs) written during rollback.  :func:`replay` performs
ARIES-style recovery over such a log (or over a torn
:class:`~repro.storage.wal.LogImage` left behind by a crash):

1. **Torn-record detection** — replay is truncated to the longest
   prefix of records whose checksums verify; a record torn mid-write by
   the crash invalidates itself and everything after it;
2. **Checkpoint** — the last intact ``checkpoint`` record seeds the
   recovered state (its payload carries the committed rows / index
   deltas at checkpoint time plus the log records of transactions then
   in flight), so replay restarts from the checkpoint instead of the
   log's beginning;
3. **Analysis** — scan for commit/abort markers to classify every
   transaction (committed, aborted, or in-flight at the crash point);
4. **Redo with filtering** — re-apply, in LSN order, the effects of
   committed transactions.  Value logging (we log the *after* image)
   makes undo unnecessary for aborted/in-flight transactions: their
   forward records are simply skipped;
5. **Undo** — a transaction that was mid-rollback when the process died
   left a partial trail of CLRs.  Replaying those CLRs (in log order,
   as ARIES redoes compensations) completes the interrupted rollback,
   restoring the before-images the engine had already compensated.

The result is the table state a restarted engine would recover to;
:func:`restore_engine` applies it onto a freshly set-up engine and
:func:`verify_against_engine` compares recovered and live state — a
machine-checked proof that the logging protocol captures exactly the
committed effects.  :func:`restart` is the one process-restart sequence
built from these steps; every crash and failover path goes through it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro import obs
from repro.core.trace import AccessTrace
from repro.storage.wal import LogRecord, RECORD_HEADER_BYTES, WriteAheadLog

COMMITTED = "committed"
ABORTED = "aborted"
IN_FLIGHT = "in-flight"
# Two-phase commit: the transaction voted yes and is in doubt — its
# locks were held and its writes forced when the process died, but the
# commit/abort decision lives on the coordinator.  Recovery must neither
# redo nor undo it until the coordinator's verdict arrives (presumed
# abort: no coordinator commit record means abort).
PREPARED = "prepared"

CHECKPOINT = "checkpoint"
"""Record kind of periodic checkpoints (txn_id 0, not a transaction)."""

PREPARE = "prepare"
"""Record kind appended (and forced) by a 2PC participant before its yes
vote; payload is ``(gtid, coordinator_shard)``."""

COORD_COMMIT = "coord-commit"
COORD_ABORT = "coord-abort"
DECISION_KINDS = (COORD_COMMIT, COORD_ABORT)
"""Coordinator decision records (txn_id 0, payload ``(gtid,)``): the
commit point of a global transaction is the forced ``coord-commit``.
Checkpoints carry unforgotten ``coord-commit`` records forward; abort
decisions need no durability (presumed abort)."""


@dataclass
class RecoveredState:
    """Committed table state rebuilt from the log."""

    # (table, row_id) -> row values (last committed after-image)
    rows: dict[tuple[str, int], tuple] = field(default_factory=dict)
    # (table, key) -> row_id for committed inserts
    inserted_keys: dict[tuple[str, int], int] = field(default_factory=dict)
    # (table, key) committed deletes
    deleted_keys: set[tuple[str, int]] = field(default_factory=set)
    txn_status: dict[int, str] = field(default_factory=dict)
    redo_applied: int = 0
    skipped: int = 0
    # CLRs of in-flight rollbacks re-applied by the undo pass.
    undo_applied: int = 0
    # Records dropped by torn-prefix truncation.
    truncated_records: int = 0
    # LSN of the checkpoint replay restarted from (None = full replay).
    checkpoint_lsn: int | None = None
    # Log records of transactions in flight or in doubt at the end of
    # the replayed prefix, plus undecided coordinator commit records
    # (what the next checkpoint must carry forward).
    active_records: list[LogRecord] = field(default_factory=list)
    # In-doubt 2PC transactions: txn_id -> (gtid, coordinator_shard).
    prepared: dict[int, tuple] = field(default_factory=dict)
    # Coordinator decisions found in this log: gtid -> COMMITTED/ABORTED.
    decisions: dict[int, str] = field(default_factory=dict)

    def row(self, table: str, row_id: int) -> tuple | None:
        return self.rows.get((table, row_id))

    def key_present(self, table: str, key: int) -> bool | None:
        """True/False when the log determines presence; None if unknown."""
        if (table, key) in self.deleted_keys:
            return False
        if (table, key) in self.inserted_keys:
            return True
        return None

    def digest(self) -> int:
        """Order-independent checksum of the recovered state.

        Equal digests for equal recovered states make the determinism
        property ("same fault schedule -> identical recovered state")
        machine-checkable.
        """
        content = (
            sorted(self.rows.items()),
            sorted(self.inserted_keys.items()),
            sorted(self.deleted_keys),
        )
        return zlib.crc32(repr(content).encode())


def valid_prefix(records: list[LogRecord]) -> tuple[list[LogRecord], int]:
    """Longest prefix of checksum-intact records, plus the count dropped.

    A torn record invalidates itself and everything after it — exactly
    what sequential log replay against per-record CRCs does.
    """
    for i, record in enumerate(records):
        if not record.intact:
            return list(records[:i]), len(records) - i
    return list(records), 0


def analyse(records: list[LogRecord]) -> dict[int, str]:
    """Pass 1: classify every transaction seen in the log."""
    status: dict[int, str] = {}
    for record in records:
        if record.kind == CHECKPOINT or record.kind in DECISION_KINDS:
            continue  # txn_id 0 bookkeeping records, not transactions
        if record.kind == "commit":
            status[record.txn_id] = COMMITTED
        elif record.kind == "abort":
            status[record.txn_id] = ABORTED
        elif record.kind == PREPARE:
            # In doubt unless a later commit/abort marker decides it
            # (markers overwrite; records are scanned in LSN order).
            status[record.txn_id] = PREPARED
        else:
            status.setdefault(record.txn_id, IN_FLIGHT)
    return status


def _load_checkpoint(records: list[LogRecord]):
    """Locate the last checkpoint; returns (state seed, tail records)."""
    last = None
    for i, record in enumerate(records):
        if record.kind == CHECKPOINT and record.payload is not None:
            last = i
    if last is None:
        return {}, {}, set(), [], None, records
    rows_items, inserted_items, deleted_items, active = records[last].payload
    rows = {tuple(k) if isinstance(k, list) else k: tuple(v) for k, v in rows_items}
    inserted = {tuple(k) if isinstance(k, list) else k: v for k, v in inserted_items}
    deleted = {tuple(k) if isinstance(k, list) else k for k in deleted_items}
    return rows, inserted, deleted, list(active), records[last].lsn, records[last + 1:]


def replay(log) -> RecoveredState:
    """Truncate + checkpoint-seed + analysis + filtered redo + undo.

    *log* is a :class:`WriteAheadLog` (which must ``retain_all``) or a
    :class:`~repro.storage.wal.LogImage` from :meth:`crash_image`.
    """
    if not log.retain_all:
        raise ValueError(
            "log replay needs a retain_all=True WriteAheadLog: the default "
            "trims its in-memory tail after group commits"
        )
    with obs.span("recovery.replay", track="recovery", cat="storage") as replay_span:
        records, truncated = valid_prefix(log.records)
        with obs.span("recovery.analysis", track="recovery", cat="storage") as analysis_span:
            rows, inserted, deleted, carried, ckpt_lsn, tail = _load_checkpoint(records)
            work = carried + tail
            state = RecoveredState(
                rows=rows,
                inserted_keys=inserted,
                deleted_keys=deleted,
                txn_status=analyse(work),
                truncated_records=truncated,
                checkpoint_lsn=ckpt_lsn,
            )
            analysis_span.set(records=len(work), transactions=len(state.txn_status))
        status = state.txn_status
        clrs_by_txn: dict[int, list[LogRecord]] = {}
        with obs.span("recovery.redo", track="recovery", cat="storage") as redo_span:
            for record in work:
                if record.kind in DECISION_KINDS:
                    state.decisions[record.payload[0]] = (
                        COMMITTED if record.kind == COORD_COMMIT else ABORTED
                    )
                    continue
                if record.kind == CHECKPOINT or record.payload is None:
                    continue
                if record.kind == PREPARE and status.get(record.txn_id) == PREPARED:
                    state.prepared[record.txn_id] = tuple(record.payload)
                if status.get(record.txn_id) != COMMITTED:
                    state.skipped += 1
                    if record.kind == "clr" and status.get(record.txn_id) == IN_FLIGHT:
                        clrs_by_txn.setdefault(record.txn_id, []).append(record)
                    continue
                _redo(state, record)
            redo_span.set(applied=state.redo_applied, skipped=state.skipped)
        # Undo pass: a transaction that died mid-rollback left CLRs carrying
        # the restore images it had already applied; re-applying them (in
        # log order — ARIES redoes compensations forward) completes the
        # rollback on the recovered state.
        with obs.span("recovery.undo", track="recovery", cat="storage") as undo_span:
            for clrs in clrs_by_txn.values():
                for record in clrs:
                    _apply_clr(state, record)
            undo_span.set(applied=state.undo_applied)
        # Carry forward: records of undecided transactions (in flight or
        # in doubt) and coordinator commit decisions — a participant may
        # ask for a verdict long after this log checkpoints, and losing
        # a commit decision would make presumed-abort lose data.  Abort
        # decisions are safely forgotten (that is the presumption).
        state.active_records = [
            r for r in work
            if r.kind == COORD_COMMIT
            or (
                r.kind != CHECKPOINT
                and r.kind not in DECISION_KINDS
                and status.get(r.txn_id) in (IN_FLIGHT, PREPARED)
            )
        ]
        replay_span.set(
            truncated=truncated,
            checkpoint_lsn=ckpt_lsn,
            redo=state.redo_applied,
            undo=state.undo_applied,
        )
        obs.inc("recovery.replays")
        obs.inc("recovery.redo_applied", state.redo_applied)
        obs.inc("recovery.undo_applied", state.undo_applied)
        return state


def _redo(state: RecoveredState, record: LogRecord) -> None:
    """Re-apply one value-log record.  Engines write these payloads only
    through ``Transaction._log_update`` / ``_log_insert`` /
    ``_log_delete`` (:mod:`repro.engines.base`)."""
    payload = record.payload
    if record.kind == "update":
        table, row_id, after = payload
        state.rows[(table, row_id)] = tuple(after)
    elif record.kind == "insert":
        table, key, row_id, values = payload
        state.rows[(table, row_id)] = tuple(values)
        state.inserted_keys[(table, key)] = row_id
        state.deleted_keys.discard((table, key))
    elif record.kind == "delete":
        table, key = payload
        state.deleted_keys.add((table, key))
        state.inserted_keys.pop((table, key), None)
    elif record.kind == "clr":
        # CLRs belong to rollbacks; a *committed* transaction cannot
        # have them (rollback ends in an abort marker), so a committed
        # CLR indicates a protocol violation.
        raise ValueError(
            f"CLR {record.lsn} attributed to committed txn {record.txn_id}"
        )
    else:
        return
    state.redo_applied += 1


def _apply_clr(state: RecoveredState, record: LogRecord) -> None:
    """Re-apply one compensation record of an interrupted rollback
    (written by ``Transaction._roll_back`` in :mod:`repro.engines.base`)."""
    payload = record.payload
    action = payload[0]
    if action == "update":
        _, table, row_id, old_row = payload
        state.rows[(table, row_id)] = tuple(old_row)
    elif action == "uninsert":
        # The engine's rollback removed the index entry it had added.
        _, table, key = payload
        state.inserted_keys.pop((table, key), None)
        state.deleted_keys.add((table, key))
    elif action == "undelete":
        _, table, key, row_id = payload
        state.deleted_keys.discard((table, key))
        state.inserted_keys[(table, key)] = row_id
    else:
        return
    state.undo_applied += 1


def redo_records(records: list[LogRecord], state: RecoveredState | None = None) -> RecoveredState:
    """Apply forward value-log *records* onto a (possibly fresh) state.

    The resolution path for a recovered in-doubt transaction: once the
    coordinator's verdict says commit, its prepared records — carried in
    ``active_records`` — are redone into a delta that
    :func:`restore_engine` can apply onto the live engine.
    """
    if state is None:
        state = RecoveredState()
    for record in records:
        if record.kind in ("update", "insert", "delete"):
            _redo(state, record)
    return state


def prepared_records(state: RecoveredState, txn_id: int) -> list[LogRecord]:
    """The carried forward records of one in-doubt transaction."""
    return [
        r for r in state.active_records
        if r.txn_id == txn_id and r.kind not in DECISION_KINDS
    ]


# -- checkpoints ------------------------------------------------------------


def write_checkpoint(
    log: WriteAheadLog,
    state: RecoveredState,
    trace: AccessTrace | None = None,
    mod: int = 0,
) -> LogRecord:
    """Append a fuzzy checkpoint carrying *state* and force the log.

    The payload snapshots the committed rows / index deltas plus the
    records of transactions still in flight (so a later replay can
    still classify and, if needed, undo them).
    """
    payload = (
        tuple(sorted(state.rows.items())),
        tuple(sorted(state.inserted_keys.items())),
        tuple(sorted(state.deleted_keys)),
        tuple(state.active_records),
    )
    estimated = 64 + 16 * (
        len(state.rows) + len(state.inserted_keys) + len(state.deleted_keys)
    ) + sum(RECORD_HEADER_BYTES + r.payload_bytes for r in state.active_records)
    payload_bytes = min(estimated, log.buffer_bytes - RECORD_HEADER_BYTES)
    record = log.append(0, CHECKPOINT, payload_bytes, trace, mod, payload=payload)
    log.force()
    return record


def take_checkpoint(
    log: WriteAheadLog,
    trace: AccessTrace | None = None,
    mod: int = 0,
    *,
    truncate: bool = False,
) -> LogRecord:
    """Replay the log into a state snapshot and checkpoint it.

    With ``truncate=True`` the pre-checkpoint records are dropped from
    the retained history afterwards (log-space reclamation); replay then
    restarts from the checkpoint, which must therefore carry everything.
    """
    state = replay(log)
    record = write_checkpoint(log, state, trace, mod)
    if truncate:
        log.truncate_before(record.lsn)
    return record


# -- engine round-trip ------------------------------------------------------


def _committed_row(engine, table: str, row_id: int) -> tuple:
    reader = getattr(engine, "committed_row", None)
    if reader is not None:
        return reader(table, row_id)
    return engine.table(table).heap.read(row_id)


def restore_engine(state: RecoveredState, engine) -> None:
    """Apply recovered committed effects onto a freshly set-up engine.

    The engine must have been set up exactly as at the original start
    (same ``workload.setup``): restart semantics are initial state plus
    the log's committed effects.  Inserted rows are re-created at their
    original row ids — holes left by rolled-back inserts become dead
    default-content slots, as they would after a real recovery that
    preserves record ids.
    """
    for (table, key), row_id in sorted(state.inserted_keys.items(), key=lambda kv: kv[1]):
        tbl = engine.table(table)
        heap = tbl.heap
        if row_id < heap.n_rows:
            tbl.insert_key(key, row_id)
            continue
        while heap.n_rows < row_id:
            heap.append(heap.schema.default_row(heap.n_rows))  # dead slot
        values = state.rows.get((table, row_id))
        heap.append(values if values is not None else heap.schema.default_row(row_id))
        tbl.insert_key(key, row_id)
    for (table, row_id), values in sorted(state.rows.items()):
        heap = engine.table(table).heap
        while heap.n_rows <= row_id:
            heap.append(heap.schema.default_row(heap.n_rows))
        heap.write(row_id, tuple(values))
    for table, key in sorted(state.deleted_keys):
        engine.table(table).delete_key(key)


def verify_against_engine(state: RecoveredState, engine) -> list[str]:
    """Compare recovered state with the live engine; returns mismatches.

    Every committed after-image in the log must match the engine's
    committed view (heap, or version store for MVCC engines), and
    committed deletes/inserts must agree with the engine's indexes.
    An empty list means the logging protocol captured the committed
    state exactly.
    """
    problems: list[str] = []
    for (table, row_id), values in state.rows.items():
        actual = _committed_row(engine, table, row_id)
        if actual != values:
            problems.append(
                f"{table}[{row_id}]: log says {values!r}, engine has {actual!r}"
            )
    for (table, key), row_id in state.inserted_keys.items():
        if engine.table(table).probe(key, None, 0) != row_id:
            problems.append(f"{table} key {key}: committed insert missing")
    for table, key in state.deleted_keys:
        if engine.table(table).probe(key, None, 0) is not None:
            problems.append(f"{table} key {key}: committed delete not applied")
    return problems


def restart(image, boot, dead_engine, injector=None):
    """Restart a dead process from its log *image*.

    *image* is already torn (``crash_image``) or is a failover winner's
    ``log_image()``; restart draws no randomness.  *boot* returns a
    freshly set-up ``(engine, retained log)``.  The sequence: replay,
    boot, restore, reserve the heap slots of carried in-doubt inserts,
    carry the txn-id counter, verify the round-trip, checkpoint the
    recovered state into the new log, then attach *injector* if given.

    Returns ``(state, engine, log, problems)``; *problems* are the
    ``state-roundtrip:`` mismatches.
    """
    state = replay(image)
    engine, log = boot()
    restore_engine(state, engine)
    # Pin the heap slots that carried in-doubt inserts name: the dead
    # process assigned those row ids, and an eventual commit verdict
    # redoes the insert there, so new transactions must not claim them.
    for record in state.active_records:
        if record.kind == "insert" and state.txn_status.get(record.txn_id) == PREPARED:
            table, _key, row_id, _values = record.payload
            heap = engine.table(table).heap
            while heap.n_rows <= row_id:
                heap.append(heap.schema.default_row(heap.n_rows))
    # The log alone under-counts: a crashed txn whose records were all
    # unflushed leaves no trace, and reusing its id would let a later
    # commit impersonate it.  Carry the dead process's counter too.
    engine._next_txn_id = max(
        engine._next_txn_id,
        dead_engine._next_txn_id,
        max(state.txn_status, default=0) + 1,
    )
    problems = [f"state-roundtrip: {p}" for p in verify_against_engine(state, engine)]
    # Seed the new log so the next crash replays from here.  In-flight
    # transactions died with the process and are not carried forward;
    # in-doubt 2PC transactions and coordinator commit decisions are.
    state.active_records = [
        r for r in state.active_records
        if r.kind == COORD_COMMIT or state.txn_status.get(r.txn_id) == PREPARED
    ]
    write_checkpoint(log, state)
    if injector is not None:
        engine.attach_injector(injector)
    return state, engine, log, problems
