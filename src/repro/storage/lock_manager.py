"""Centralised two-phase-locking lock manager (the disk engines' CC).

Traditional systems "ensure isolation among concurrent transactions
using a centralized lock manager and two-phase locking" (Section 2.1).
The lock table is the shared data structure whose cache lines bounce
between cores in multi-threaded runs — acquiring a lock probes a hashed
lock-table bucket and read-modify-writes the lock head, which the
hierarchy turns into coherence traffic when other workers touch the
same buckets.

Lock modes form the classic S/X lattice with intention locks for
hierarchical (table -> row) locking.  Conflicting requests fail fast
(no-wait), and the engine aborts and retries the transaction — the
behaviour that keeps a discrete-event single-queue simulation live-lock
free while preserving the data traffic of lock acquisition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro import obs
from repro.core.trace import AccessTrace
from repro.storage.address_space import DataAddressSpace
from repro.storage.hash_index import fibonacci_hash
from repro.util.stablehash import stable_hash

_LOCK_HEAD_BYTES = 64


class LockMode(Enum):
    IS = "IS"
    IX = "IX"
    S = "S"
    X = "X"


_COMPATIBLE: dict[tuple[LockMode, LockMode], bool] = {
    (LockMode.IS, LockMode.IS): True,
    (LockMode.IS, LockMode.IX): True,
    (LockMode.IS, LockMode.S): True,
    (LockMode.IS, LockMode.X): False,
    (LockMode.IX, LockMode.IS): True,
    (LockMode.IX, LockMode.IX): True,
    (LockMode.IX, LockMode.S): False,
    (LockMode.IX, LockMode.X): False,
    (LockMode.S, LockMode.IS): True,
    (LockMode.S, LockMode.IX): False,
    (LockMode.S, LockMode.S): True,
    (LockMode.S, LockMode.X): False,
    (LockMode.X, LockMode.IS): False,
    (LockMode.X, LockMode.IX): False,
    (LockMode.X, LockMode.S): False,
    (LockMode.X, LockMode.X): False,
}


def compatible(held: LockMode, requested: LockMode) -> bool:
    return _COMPATIBLE[(held, requested)]


class LockConflict(Exception):
    """Raised when a no-wait lock request conflicts."""

    def __init__(self, resource, holder: int, requester: int) -> None:
        super().__init__(f"txn {requester} blocked on {resource!r} held by txn {holder}")
        self.resource = resource
        self.holder = holder
        self.requester = requester


@dataclass
class _LockEntry:
    holders: dict[int, LockMode] = field(default_factory=dict)


class LockManager:
    """Hash-partitioned lock table with no-wait conflict handling."""

    # Optional FaultInjector threaded in by Engine.attach_injector.
    injector = None

    def __init__(self, name: str, space: DataAddressSpace, *, n_buckets: int = 1 << 14) -> None:
        self.name = name
        self.n_buckets = n_buckets
        self._region = space.region(f"locktab:{name}", n_buckets * _LOCK_HEAD_BYTES)
        self._table: dict[object, _LockEntry] = {}
        # Insertion-ordered (a dict used as a set) so release_all touches
        # lock heads in acquisition order, independent of PYTHONHASHSEED.
        self._held_by_txn: dict[int, dict] = {}
        self.acquisitions = 0
        self.conflicts = 0

    def _emit(self, resource, trace: AccessTrace | None, mod: int) -> None:
        if trace is None:
            return
        bucket = fibonacci_hash(stable_hash(resource), self.n_buckets)
        line = self._region.line(bucket * _LOCK_HEAD_BYTES)
        trace.load(line, mod, serial=True)
        trace.store(line, mod)  # lock head update (holder list / counters)

    def acquire(
        self,
        txn_id: int,
        resource,
        mode: LockMode,
        trace: AccessTrace | None = None,
        mod: int = 0,
    ) -> None:
        """Acquire *mode* on *resource* or raise :class:`LockConflict`."""
        if self.injector is not None:
            self.injector.fire(
                "lock.acquire", resource=resource, txn_id=txn_id, mode=mode.value
            )
        self._emit(resource, trace, mod)
        entry = self._table.get(resource)
        if entry is None:
            entry = _LockEntry()
            self._table[resource] = entry
        held = entry.holders.get(txn_id)
        if held is not None and _upgradable(held, mode):
            entry.holders[txn_id] = _stronger(held, mode)
            self.acquisitions += 1
            obs.inc("lock.acquisitions", manager=self.name)
            return
        for other_txn, other_mode in entry.holders.items():
            if other_txn != txn_id and not compatible(other_mode, mode):
                self.conflicts += 1
                obs.annotate(
                    "lock.conflict", track="locks", cat="storage",
                    resource=repr(resource), mode=mode.value,
                    holder=other_txn, requester=txn_id,
                )
                obs.inc("lock.conflicts", manager=self.name)
                raise LockConflict(resource, other_txn, txn_id)
        entry.holders[txn_id] = _stronger(held, mode) if held else mode
        self._held_by_txn.setdefault(txn_id, {})[resource] = None
        self.acquisitions += 1
        obs.inc("lock.acquisitions", manager=self.name)

    def release_all(self, txn_id: int, trace: AccessTrace | None = None, mod: int = 0) -> int:
        """Release every lock held by *txn_id* (commit/abort); returns count."""
        resources = self._held_by_txn.pop(txn_id, {})
        for resource in resources:
            self._emit(resource, trace, mod)
            entry = self._table.get(resource)
            if entry is not None:
                entry.holders.pop(txn_id, None)
                if not entry.holders:
                    del self._table[resource]
        return len(resources)

    def holds(self, txn_id: int, resource) -> LockMode | None:
        entry = self._table.get(resource)
        return entry.holders.get(txn_id) if entry else None

    @property
    def active_locks(self) -> int:
        return sum(len(e.holders) for e in self._table.values())


_STRENGTH = {LockMode.IS: 0, LockMode.IX: 1, LockMode.S: 1, LockMode.X: 2}


def _stronger(a: LockMode, b: LockMode) -> LockMode:
    if a == b:
        return a
    if {a, b} == {LockMode.IX, LockMode.S}:
        return LockMode.X  # SIX collapsed to X in this model
    return a if _STRENGTH[a] >= _STRENGTH[b] else b


def _upgradable(held: LockMode, requested: LockMode) -> bool:
    """A transaction may always strengthen its own lock."""
    return True
