"""Write-ahead log with asynchronous group commit.

"For all the systems, we use asynchronous logging.  Therefore, there is
no delay due to I/O in the critical path of the transaction execution"
(Section 3).  What remains on the critical path — and what this module
emits — is the *memory* traffic of logging: formatting log records into
a circular in-memory buffer (sequential stores with good locality) and
bumping the LSN.

Flushes happen in the background in batches (group commit); the flush
daemon is bookkeeping only and contributes nothing to the worker's
trace, matching the paper's filtered-to-the-worker-thread methodology.

Crash consistency: every record carries a CRC over its logical content,
and :meth:`WriteAheadLog.crash_image` produces the log a restarted
process would find after the process dies — the flushed prefix is
durable, the unflushed tail is partially lost and its last surviving
record may be torn (checksum mismatch).  Recovery truncates replay to
the last valid prefix (see :mod:`repro.storage.recovery`).
"""

from __future__ import annotations

import enum
import random
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from operator import attrgetter

from repro import obs
from repro.core.spec import CACHE_LINE_BYTES
from repro.core.trace import AccessTrace
from repro.storage.address_space import DataAddressSpace

_RECORD_HEADER_BYTES = 24
RECORD_HEADER_BYTES = _RECORD_HEADER_BYTES

# Fault-injection point names fired by this module (canonical constants
# live in repro.faults.injector; string literals here avoid an import
# cycle storage -> faults -> engines -> storage).
_POINT_BEFORE_APPEND = "wal.before_append"
_POINT_AFTER_APPEND = "wal.after_append"
_POINT_GROUP_COMMIT = "wal.group_commit"


def record_checksum(lsn: int, txn_id: int, kind: str, payload_bytes: int, payload) -> int:
    """CRC over a record's logical content (simulated on-disk checksum)."""
    return zlib.crc32(repr((lsn, txn_id, kind, payload_bytes, payload)).encode())


class _Deferred(enum.Enum):
    """A stored checksum still to be computed (an enum: pickles as itself)."""

    CHECKSUM = "checksum"


_DEFERRED = _Deferred.CHECKSUM


class _ChecksumField:
    """Descriptor for :attr:`LogRecord.checksum`.

    Stores what it is given, except that a record the WAL appended gets
    its CRC on first read: a record's content is immutable, so the value
    is the same whenever it is computed.  Only torn copies, replication
    log digests and their tests read it; an open-loop load or figure
    run reads none of the records it appends.
    """

    def __get__(self, record, owner=None):
        if record is None:
            return None  # the dataclass field default
        value = record._checksum
        if value is _DEFERRED:
            value = record_checksum(
                record.lsn, record.txn_id, record.kind, record.payload_bytes, record.payload
            )
            object.__setattr__(record, "_checksum", value)
        return value

    def __set__(self, record, value) -> None:
        # object.__setattr__: the frozen dataclass refuses plain assignment.
        object.__setattr__(record, "_checksum", value)


@dataclass(frozen=True)
class LogRecord:
    lsn: int
    txn_id: int
    # 'begin' | 'update' | 'insert' | 'delete' | 'clr' | 'commit' | 'abort'
    # | 'checkpoint', plus the two-phase-commit kinds: 'prepare' (payload
    # (gtid, coordinator shard), appended by a participant before it votes
    # yes) and the coordinator decision records 'coord-commit' /
    # 'coord-abort' (txn_id 0, payload (gtid,), not a transaction).
    kind: str
    payload_bytes: int
    # Value-logging payload (kind-specific tuple); lets the recovery
    # module rebuild committed state from the log alone.
    payload: tuple | None = None
    # CRC over the logical content; None marks hand-built records that
    # skip checksumming (treated as intact).  Records the WAL appends
    # compute it on first read (see _ChecksumField).
    checksum: int | None = _ChecksumField()  # type: ignore[assignment]

    @property
    def intact(self) -> bool:
        """True unless the stored checksum mismatches the content."""
        stored = self._checksum
        if stored is None or stored is _DEFERRED:
            return True  # unchecked, or still to be computed from this content
        return stored == record_checksum(
            self.lsn, self.txn_id, self.kind, self.payload_bytes, self.payload
        )


_lsn = attrgetter("lsn")


def records_after(records: list[LogRecord], lsn: int) -> list[LogRecord]:
    """The records of LSN-ordered *records* with ``lsn > lsn``.

    Logs append in LSN order, so this is a slice at a binary search,
    not a scan of every record.
    """
    return records[bisect_right(records, lsn, key=_lsn):]


def torn_copy(record: LogRecord) -> LogRecord:
    """A copy of *record* whose tail was torn by the crash (bad CRC)."""
    return replace(record, checksum=(record.checksum or 0) ^ 0x5A17F00D)


@dataclass
class LogImage:
    """The durable log a restarted process finds after a crash.

    Quacks enough like :class:`WriteAheadLog` for
    :func:`repro.storage.recovery.replay`: it has ``records`` and is
    always ``retain_all`` (it *is* the full durable history).
    """

    records: list[LogRecord] = field(default_factory=list)
    lost_records: int = 0  # unflushed-tail records that never hit disk
    torn_tail: bool = False  # last surviving record torn mid-write
    retain_all: bool = True


class WriteAheadLog:
    """Circular in-memory log buffer with async group commit."""

    def __init__(
        self,
        name: str,
        space: DataAddressSpace,
        *,
        buffer_bytes: int = 8 << 20,
        group_commit_size: int = 64,
        retain_all: bool = False,
    ) -> None:
        self.name = name
        self.buffer_bytes = buffer_bytes
        self.group_commit_size = group_commit_size
        # Keep every record in memory (recovery tests / log replay);
        # the default trims to a tail like a real archived log.
        self.retain_all = retain_all
        self._region = space.region(f"wal:{name}", buffer_bytes)
        self._head = 0  # byte offset of the next record
        self.next_lsn = 1
        self.records: list[LogRecord] = []
        self.flushed_lsn = 0
        # LSN / txn id of the last 'commit' record appended — the
        # position a replication client waits on for its ack.
        self.last_commit_lsn = 0
        self.last_commit_txn = 0
        self._pending_commits = 0
        self.flushes = 0
        # Optional FaultInjector threaded in by Engine.attach_injector.
        self.injector = None

    def append(
        self,
        txn_id: int,
        kind: str,
        payload_bytes: int,
        trace: AccessTrace | None = None,
        mod: int = 0,
        *,
        payload: tuple | None = None,
    ) -> LogRecord:
        """Format a record into the buffer; returns it."""
        _tracer = obs.tracer()
        _t0 = _tracer.clock() if _tracer is not None else 0
        if payload_bytes < 0:
            raise ValueError(f"negative payload_bytes {payload_bytes}")
        size = _RECORD_HEADER_BYTES + payload_bytes
        if size > self.buffer_bytes:
            raise ValueError(
                f"log record of {size} bytes cannot fit the {self.buffer_bytes}-byte "
                f"buffer of {self.name!r}; raise buffer_bytes or split the record"
            )
        injector = self.injector
        if injector is not None:
            injector.fire(_POINT_BEFORE_APPEND, wal=self.name, kind=kind, txn_id=txn_id)
        if self._head + size > self.buffer_bytes:
            self._head = 0  # wrap (old contents flushed long ago)
        if trace is not None:
            first = self._region.line(self._head)
            last = self._region.line(self._head + size - 1)
            trace.store_run(first, last - first + 1, mod)
        record = LogRecord(
            lsn=self.next_lsn, txn_id=txn_id, kind=kind,
            payload_bytes=payload_bytes, payload=payload, checksum=_DEFERRED,
        )
        self.next_lsn += 1
        self._head += size
        self.records.append(record)
        if kind == "commit":
            self.last_commit_lsn = record.lsn
            self.last_commit_txn = txn_id
        if kind in ("commit", "abort"):
            self._pending_commits += 1
            if self._pending_commits >= self.group_commit_size:
                self._flush()
        if injector is not None:
            injector.fire(
                _POINT_AFTER_APPEND, wal=self.name, kind=kind, txn_id=txn_id, lsn=record.lsn
            )
        if _tracer is not None:
            _tracer.complete(
                "wal.append", "wal", "storage", _t0, wal=self.name, kind=kind, bytes=size
            )
            obs.inc("wal.appends", wal=self.name, kind=kind)
            obs.observe("wal.record_bytes", size, wal=self.name)
        return record

    def _flush(self) -> None:
        with obs.span(
            "wal.group_commit", track="wal", cat="storage",
            wal=self.name, batch=self._pending_commits,
        ):
            injector = self.injector
            if injector is not None:
                # A crash here loses the whole batch: flushed_lsn not advanced.
                injector.fire(_POINT_GROUP_COMMIT, wal=self.name, batch=self._pending_commits)
            self.flushed_lsn = self.next_lsn - 1
            self._pending_commits = 0
            self.flushes += 1
            obs.inc("wal.flushes", wal=self.name)
            # Keep only an in-memory tail for inspection; a real log would
            # hand the batch to the I/O daemon here.
            if not self.retain_all and len(self.records) > 4 * self.group_commit_size:
                del self.records[: -2 * self.group_commit_size]

    def force(self) -> None:
        """Synchronous flush (shutdown / checkpoint)."""
        self._flush()

    @property
    def unflushed_records(self) -> int:
        return (self.next_lsn - 1) - self.flushed_lsn

    def crash_image(self, rng: random.Random | None = None) -> LogImage:
        """The log a restarted process would find if the process died now.

        The flushed prefix is durable.  Of the unflushed tail, a
        rng-chosen prefix survives (the background flusher may have been
        mid-write), the rest is lost; with probability 1/2 the last
        surviving tail record is torn — checksummed wrong — so recovery
        must truncate it.  With ``rng=None`` the whole unflushed tail is
        lost (the most pessimistic, fully deterministic image).
        """
        if not self.retain_all:
            raise ValueError(
                "crash_image needs a retain_all=True WriteAheadLog: the default "
                "trims its in-memory tail after group commits"
            )
        durable = [r for r in self.records if r.lsn <= self.flushed_lsn]
        tail = [r for r in self.records if r.lsn > self.flushed_lsn]
        if rng is None:
            keep = 0
        else:
            keep = rng.randrange(len(tail) + 1)
        survivors = list(tail[:keep])
        torn = False
        if survivors and rng is not None and rng.random() < 0.5:
            survivors[-1] = torn_copy(survivors[-1])
            torn = True
        return LogImage(
            records=durable + survivors,
            lost_records=len(tail) - keep,
            torn_tail=torn,
        )

    def records_since(self, lsn: int) -> list[LogRecord]:
        """Retained records with ``lsn > lsn`` (the WAL-shipping feed)."""
        return records_after(self.records, lsn)

    def truncate_before(self, lsn: int) -> int:
        """Drop retained records with ``lsn < lsn`` (post-checkpoint GC)."""
        before = len(self.records)
        self.records = [r for r in self.records if r.lsn >= lsn]
        return before - len(self.records)

    def estimated_record_lines(self, payload_bytes: int) -> int:
        return -(-(_RECORD_HEADER_BYTES + payload_bytes) // CACHE_LINE_BYTES)
