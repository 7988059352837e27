"""Primary/replica WAL shipping with deterministic LSN-based failover.

A :class:`ReplicationGroup` runs one primary engine (any engine that
exposes a :meth:`~repro.engines.base.Engine.recovery_log`) and N
:class:`Replica` nodes connected by a
:class:`~repro.replication.network.SimNetwork`.  The protocol is
deliberately the simplest thing that is honest:

* **Shipping** — after every transaction the primary sends each replica
  the log records it has not yet acknowledged (``ship`` messages carry
  ``(epoch, records)``).  Replicas append records in LSN order into
  their durable copy, buffering out-of-order arrivals and ignoring
  duplicates, and answer every ship with an ``ack`` carrying their
  durable LSN — so retransmission (triggered by ack timeouts and the
  final sync) repairs drops, and duplicates/reorders are absorbed.
* **Ack modes** — the client submit path waits for its commit LSN to
  reach ``async`` (nobody: local append suffices), ``sync-one`` (at
  least one replica durable) or ``quorum`` (a majority of the
  ``1 + N`` nodes, the primary included) before acknowledging the
  transaction, under a tick deadline with capped exponential backoff
  plus seeded jitter between retries.
* **Failover** — when the primary process dies (a
  :class:`~repro.faults.SimulatedCrash`), the replica with the highest
  durable LSN wins (ties broken by lowest replica id — no elections),
  its log is replayed through the existing ARIES recovery
  (:func:`repro.storage.recovery.replay`), and the recovered state
  seeds a fresh primary under a bumped epoch; replicas discard their
  old-epoch logs and resynchronise from the new primary's checkpoint.

The durability contract per ack mode is machine-checked by the chaos
harness: a transaction acknowledged under ``sync-one`` or ``quorum``
must survive any single primary failure (its commit LSN is ≤ the
winner's durable LSN by construction — the invariant proves the
implementation honours the construction), while ``async`` acks promise
nothing beyond the primary's own group-commit window, exactly like the
single-node contract.

:class:`SingleNode` is the same node interface over a bare primary, so
callers drive either kind of node without branching on replication.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro import obs
from repro.engines.base import COMMITTED
from repro.util import sanitizer
from repro.replication.network import SimNetwork
from repro.storage.recovery import RecoveredState, restart
from repro.storage.wal import LogImage, LogRecord, records_after
from repro.util.backoff import jittered_backoff
from repro.util.rng import child_rng

ASYNC = "async"
SYNC_ONE = "sync-one"
QUORUM = "quorum"
ACK_MODES = (ASYNC, SYNC_ONE, QUORUM)
"""Client acknowledgement modes, weakest to strongest."""

PRIMARY_NODE = "primary"


def check_ack(ack: str) -> None:
    """Raise ``ValueError`` unless *ack* is one of :data:`ACK_MODES`."""
    if ack not in ACK_MODES:
        raise ValueError(f"unknown ack mode {ack!r}; known: {', '.join(ACK_MODES)}")


def log_digest(epoch: int, records) -> int:
    """Byte-level checksum of a log's records within *epoch*: a replica's
    durable log and the primary's shipped history digest alike."""
    content = (
        epoch,
        tuple((r.lsn, r.txn_id, r.kind, r.payload_bytes, r.checksum) for r in records),
    )
    return zlib.crc32(repr(content).encode())


@dataclass(frozen=True)
class ReplicationSpec:
    """Shape of a replication group and its client-side ack policy."""

    n_replicas: int = 2
    ack: str = QUORUM
    latency_ticks: int = 1
    # Client submit path: ticks to wait for the ack condition before a
    # retry, retries before giving the transaction up as unacked, and
    # the capped exponential backoff (plus jitter) between retries.
    deadline_ticks: int = 12
    max_ack_retries: int = 3
    backoff_base_ticks: int = 2
    backoff_cap_ticks: int = 16

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ValueError("a replication group needs n_replicas >= 1")
        check_ack(self.ack)

    def quorum_size(self) -> int:
        """Majority of the ``1 + n_replicas`` nodes (primary included)."""
        return (1 + self.n_replicas) // 2 + 1


class Replica:
    """A log-shipping replica: a durable, contiguous WAL copy.

    Replicas do not execute transactions — they persist the primary's
    record stream and apply it (here: appending *is* applying; the
    replayable state is a pure function of the log).  ``applied_lsn``
    must never move backwards within an epoch; violations are recorded,
    not raised, so the invariant surfaces through the chaos report.
    """

    def __init__(self, replica_id: int) -> None:
        self.replica_id = replica_id
        self.node = f"replica{replica_id}"
        self.epoch = 1
        self.records: list[LogRecord] = []
        self.pending: dict[int, LogRecord] = {}
        self.durable_lsn = 0
        self.applied_lsn = 0
        self.monotonic_violations: list[str] = []

    def reset(self, epoch: int) -> None:
        """Adopt a new epoch: the old-epoch log is discarded wholesale."""
        self.epoch = epoch
        self.records = []
        self.pending = {}
        self.durable_lsn = 0
        self.applied_lsn = 0

    def receive(self, epoch: int, records: tuple[LogRecord, ...]) -> int:
        """Ingest one ship batch; returns the new durable LSN."""
        if epoch != self.epoch:
            return self.durable_lsn  # stale epoch: ignore, ack current state
        for record in records:
            if not record.intact or record.lsn <= self.durable_lsn:
                continue  # torn in flight / duplicate
            self.pending[record.lsn] = record
        while self.durable_lsn + 1 in self.pending:
            self.records.append(self.pending.pop(self.durable_lsn + 1))
            self.durable_lsn += 1
        self._apply(self.durable_lsn)
        return self.durable_lsn

    def _apply(self, lsn: int) -> None:
        if lsn < self.applied_lsn:
            self.monotonic_violations.append(
                f"replica{self.replica_id} epoch {self.epoch}: applied LSN "
                f"moved backwards {self.applied_lsn} -> {lsn}"
            )
        self.applied_lsn = max(self.applied_lsn, lsn)

    def log_image(self) -> LogImage:
        """The durable log a failover would recover this replica from."""
        return LogImage(records=list(self.records))

    def digest(self) -> int:
        """Byte-level checksum of the replica's durable log."""
        return log_digest(self.epoch, self.records)


@dataclass
class FailoverReport:
    """What one failover of a node's primary decided and recovered.

    A :class:`SingleNode` has nobody to elect: its winner fields are
    ``None``, its epoch is 0, and ``torn_tail`` says whether the image
    it restarted from ended in a torn record.
    """

    epoch: int  # the epoch that just ended
    winner_id: int | None
    winner_lsn: int | None
    candidate_lsns: tuple[int, ...]
    primary_tip: int  # last LSN the dead primary had appended
    lost_records: int  # records the dead primary had that the restart lacks
    acked_checked: int  # durable-mode acks verified against the winner
    state_digest: int
    problems: list[str] = field(default_factory=list)
    torn_tail: bool = False


class ReplicationGroup:
    """One primary engine + N replicas over a seeded SimNetwork."""

    def __init__(self, spec: ReplicationSpec, engine_factory, *, seed: int = 0) -> None:
        self.spec = spec
        self.engine_factory = engine_factory  # () -> (engine, retained log)
        self.seed = seed
        self.engine, self.log = engine_factory()
        self.injector = None
        self.net = SimNetwork(latency_ticks=spec.latency_ticks)
        self.net.register(PRIMARY_NODE, self._on_primary_message)
        self.replicas = [Replica(i) for i in range(spec.n_replicas)]
        for replica in self.replicas:
            self.net.register(replica.node, self._make_replica_handler(replica))
        self.epoch = 1
        # Per-replica shipping cursors: last LSN sent / last LSN acked.
        self._sent_lsn = {r.replica_id: 0 for r in self.replicas}
        self.acked_lsn = {r.replica_id: 0 for r in self.replicas}
        # The primary's shipped history for the current epoch.  Ship
        # batches are served from here, not from the live WAL, so
        # checkpoint truncation on the primary cannot strand a replica
        # that still needs older records retransmitted.
        self.history: list[LogRecord] = []
        self._history_tip = 0
        # txn id -> commit LSN for transactions acknowledged under a
        # durable mode (sync-one / quorum) in the current epoch.
        self.acked: dict[int, int] = {}
        self._jitter_rng = child_rng(seed, "client")
        self.failovers: list[FailoverReport] = []
        self.submitted = 0
        self.acked_count = 0
        self.unacked_count = 0
        self.ack_retries = 0
        self.backoff_ticks = 0

    # -- message handlers ----------------------------------------------------

    def _make_replica_handler(self, replica: Replica):
        def handle(message) -> None:
            if message.kind != "ship":
                return
            epoch, records = message.payload
            durable = replica.receive(epoch, records)
            self.net.send(
                replica.node, PRIMARY_NODE, "ack",
                (replica.epoch, replica.replica_id, durable),
            )
        return handle

    def _on_primary_message(self, message) -> None:
        if message.kind != "ack":
            return
        epoch, replica_id, durable = message.payload
        if epoch != self.epoch:
            return  # ack from a dead epoch
        if durable > self.acked_lsn[replica_id]:
            self.acked_lsn[replica_id] = durable
        obs.set_gauge(
            "repl.lag", float(self._history_tip - durable), replica=replica_id
        )

    # -- shipping ------------------------------------------------------------

    def attach_injector(self, injector) -> None:
        """Thread a FaultInjector through the primary *and* the fabric;
        a failover re-attaches it to the new primary."""
        self.injector = injector
        self.engine.attach_injector(injector)
        self.net.injector = injector

    def _capture_history(self) -> None:
        new = self.log.records_since(self._history_tip)
        if new:
            self.history.extend(new)
            self._history_tip = new[-1].lsn

    def ship(self) -> None:
        """Send every replica the records it has not acknowledged yet."""
        self._capture_history()
        with obs.span(
            "repl.ship", track="repl", cat="replication",
            epoch=self.epoch, tip=self._history_tip,
        ) as ship_span:
            batches = 0
            for replica in self.replicas:
                cursor = self._sent_lsn[replica.replica_id]
                batch = tuple(records_after(self.history, cursor))
                if not batch:
                    continue
                self.net.send(
                    PRIMARY_NODE, replica.node, "ship", (self.epoch, batch)
                )
                self._sent_lsn[replica.replica_id] = self._history_tip
                batches += 1
                obs.inc("repl.shipped_records", len(batch), replica=replica.replica_id)
            ship_span.set(batches=batches)

    def _rewind_cursors(self) -> None:
        """Retransmit from the last acked position on the next ship."""
        for replica_id, acked in self.acked_lsn.items():
            self._sent_lsn[replica_id] = min(self._sent_lsn[replica_id], acked)

    # -- client submit path --------------------------------------------------

    def _ack_met(self, lsn: int) -> bool:
        if self.spec.ack == ASYNC:
            return True
        durable_replicas = sum(1 for v in self.acked_lsn.values() if v >= lsn)
        if self.spec.ack == SYNC_ONE:
            return durable_replicas >= 1
        return 1 + durable_replicas >= self.spec.quorum_size()

    def _await_ack(self, lsn: int) -> bool:
        """Wait (in fabric ticks) for the ack condition on *lsn*."""
        with obs.span(
            "repl.ack", track="repl", cat="replication",
            lsn=lsn, mode=self.spec.ack,
        ) as ack_span:
            if self.spec.ack == ASYNC:
                # Nothing to wait for; keep the fabric moving so ships
                # land in the background.
                self.net.tick(self.spec.latency_ticks)
                ack_span.set(attempts=0)
                return True
            attempt = 0
            while True:
                for _ in range(self.spec.deadline_ticks):
                    if self._ack_met(lsn):
                        ack_span.set(attempts=attempt)
                        return True
                    self.net.tick()
                if self._ack_met(lsn):
                    ack_span.set(attempts=attempt)
                    return True
                attempt += 1
                obs.inc("repl.ack_timeouts", mode=self.spec.ack)
                if attempt > self.spec.max_ack_retries:
                    ack_span.set(attempts=attempt, timed_out=True)
                    return False
                with sanitizer.scope("client"):
                    backoff = jittered_backoff(
                        self.spec.backoff_base_ticks,
                        self.spec.backoff_cap_ticks,
                        attempt,
                        self._jitter_rng,
                    )
                self.ack_retries += 1
                self.backoff_ticks += backoff
                obs.inc("repl.ack_retries", mode=self.spec.ack)
                obs.observe("repl.backoff_ticks", backoff, mode=self.spec.ack)
                # Retransmit before backing off: the timeout may be a
                # dropped ship or ack, not a slow replica.
                self._rewind_cursors()
                self.ship()
                self.net.tick(backoff)

    def replicate(self, lsn: int, txn_id: int | None = None) -> bool:
        """Ship and await *lsn* under the spec's ack policy (2PC side door).

        The sharded commit path appends its own records (prepare,
        decision, commit) outside :meth:`submit`; this makes them as
        durable as a submitted commit would be.  A *txn_id* is entered
        into the durable-ack ledger on success so the failover
        invariants cover it.
        """
        self.ship()
        ok = self._await_ack(lsn)
        if ok:
            if txn_id is not None and self.spec.ack != ASYNC:
                self.acked[txn_id] = lsn
        return ok

    def submit(self, procedure: str, body) -> str:
        """Execute one transaction on the primary and await its ack.

        Returns the engine outcome.  A :class:`SimulatedCrash` from the
        primary propagates to the caller, who must run :meth:`failover`.
        Committed transactions whose ack deadline (after retries)
        expires are counted ``unacked`` — the client got no promise, so
        losing them later breaks nothing.
        """
        self.submitted += 1
        self.engine.execute(procedure, body)
        outcome = self.engine.last_outcome
        if outcome != COMMITTED:
            self.net.tick(self.spec.latency_ticks)
            return outcome
        commit_lsn = self.log.last_commit_lsn
        commit_txn = self.log.last_commit_txn
        self.ship()
        if self._await_ack(commit_lsn):
            self.acked_count += 1
            if self.spec.ack != ASYNC:
                self.acked[commit_txn] = commit_lsn
            obs.inc("repl.acked", mode=self.spec.ack)
        else:
            self.unacked_count += 1
            obs.inc("repl.unacked", mode=self.spec.ack)
        return outcome

    # -- failover ------------------------------------------------------------

    def _elect(self) -> Replica:
        """Highest durable LSN wins; ties fall to the lowest replica id."""
        return max(self.replicas, key=lambda r: (r.durable_lsn, -r.replica_id))

    def failover(self) -> tuple[RecoveredState, FailoverReport]:
        """The primary died: elect, replay, and install a new primary.

        The winner's log goes through :func:`restart`, which also
        re-attaches the group's injector to the new primary.  Leaves the
        group running under a bumped epoch with that primary seeded from
        the winner's recovered state; the caller still holds the dead
        engine for stats accounting.
        """
        with obs.span(
            "repl.failover", track="repl", cat="replication", epoch=self.epoch
        ) as failover_span:
            # Whatever was in flight when the primary died may still
            # arrive (or be severed by an active partition) — drain.
            self.net.run_until_quiet()
            winner = self._elect()
            primary_tip = self.log.next_lsn - 1
            problems: list[str] = []
            for txn_id, lsn in sorted(self.acked.items()):
                if lsn > winner.durable_lsn:
                    problems.append(
                        f"no-acked-txn-lost: txn {txn_id} acked at lsn {lsn} "
                        f"under {self.spec.ack} but the failover winner "
                        f"(replica{winner.replica_id}) is only durable to "
                        f"{winner.durable_lsn}"
                    )
            state, engine, log, roundtrip = restart(
                winner.log_image(), self.engine_factory, self.engine, self.injector
            )
            for txn_id, lsn in sorted(self.acked.items()):
                status = state.txn_status.get(txn_id)
                if status is not None and status != "committed":
                    problems.append(
                        f"no-acked-txn-lost: acked txn {txn_id} replayed as "
                        f"{status} on the failover winner"
                    )
            problems.extend(roundtrip)
            report = FailoverReport(
                epoch=self.epoch,
                winner_id=winner.replica_id,
                winner_lsn=winner.durable_lsn,
                candidate_lsns=tuple(r.durable_lsn for r in self.replicas),
                primary_tip=primary_tip,
                lost_records=max(0, primary_tip - winner.durable_lsn),
                acked_checked=len(self.acked),
                state_digest=state.digest(),
                problems=problems,
            )
            self.failovers.append(report)
            # New epoch: replicas drop their old logs and resync from the
            # new primary's checkpoint, which carries in-doubt 2PC
            # transactions and coordinator commit decisions forward.
            self.epoch += 1
            self.engine, self.log = engine, log
            self.history = []
            self._history_tip = 0
            self.acked = {}
            for replica in self.replicas:
                replica.reset(self.epoch)
                self._sent_lsn[replica.replica_id] = 0
                self.acked_lsn[replica.replica_id] = 0
            self.ship()
            failover_span.set(
                winner=winner.replica_id,
                winner_lsn=report.winner_lsn,
                lost=report.lost_records,
                problems=len(problems),
            )
            obs.inc("repl.failovers")
            return state, report

    # -- convergence ---------------------------------------------------------

    def primary_log_digest(self) -> int:
        """The primary's shipped history, digested like a replica log."""
        self._capture_history()
        return log_digest(self.epoch, self.history)

    def final_sync(self, max_rounds: int = 32) -> None:
        """Heal partitions and drive every replica to the primary's tip."""
        self.net.heal()
        self.log.force()
        self._capture_history()
        for _ in range(max_rounds):
            if all(v >= self._history_tip for v in self.acked_lsn.values()):
                break
            self._rewind_cursors()
            self.ship()
            self.net.run_until_quiet()

    def convergence_problems(self) -> list[str]:
        """Cross-node invariants checked after :meth:`final_sync`.

        * replicas byte-converge with each other and with the primary's
          shipped history;
        * every replica's applied LSN advanced monotonically (within
          each epoch) over the whole run.
        """
        problems: list[str] = []
        primary_digest = self.primary_log_digest()
        for replica in self.replicas:
            if replica.durable_lsn != self._history_tip:
                problems.append(
                    f"replica-convergence: replica{replica.replica_id} durable "
                    f"lsn {replica.durable_lsn} != primary tip {self._history_tip}"
                )
            elif replica.digest() != primary_digest:
                problems.append(
                    f"replica-convergence: replica{replica.replica_id} log "
                    f"digest {replica.digest():#010x} != primary "
                    f"{primary_digest:#010x}"
                )
        for replica in self.replicas:
            problems.extend(
                f"monotonic-applied-lsn: {v}" for v in replica.monotonic_violations
            )
        return problems

    def replica_digests(self) -> tuple[int, ...]:
        return tuple(r.digest() for r in self.replicas)


class SingleNode:
    """A bare primary with the node interface of a :class:`ReplicationGroup`.

    Chaos, load and sharding drive either kind of node the same way.  A
    single node has no replicas and no fabric: :meth:`replicate` forces
    its log, :meth:`ship` and :meth:`final_sync` do nothing, and
    :meth:`failover` restarts it from its own torn log.
    """

    def __init__(self, boot, image_rng, image_purpose: str = "image") -> None:
        self.boot = boot  # () -> (engine, retained log)
        # The crash-image tear draws from *image_rng*, inside a sanitizer
        # scope of *image_purpose* (the stream's own purpose).
        self.image_rng = image_rng
        self.image_purpose = image_purpose
        self.engine, self.log = boot()
        self.injector = None
        self.replicas: list[Replica] = []

    def attach_injector(self, injector) -> None:
        """Thread a FaultInjector through the engine; a failover
        re-attaches it to the restarted engine."""
        self.injector = injector
        self.engine.attach_injector(injector)

    def submit(self, procedure: str, body) -> str:
        """Execute one transaction; returns the engine outcome."""
        self.engine.execute(procedure, body)
        return self.engine.last_outcome

    def replicate(self, lsn: int, txn_id: int | None = None) -> bool:
        """Make the log tip durable: a single node forces its log."""
        self.log.force()
        return True

    def ship(self) -> None:
        """Nothing to ship: a single node has no replicas."""

    def failover(self) -> tuple[RecoveredState, FailoverReport]:
        """The process died: tear its log and restart through :func:`restart`,
        which re-attaches the node's injector to the new engine."""
        with sanitizer.scope(self.image_purpose):
            image = self.log.crash_image(self.image_rng)
        primary_tip = self.log.next_lsn - 1
        state, self.engine, self.log, problems = restart(
            image, self.boot, self.engine, self.injector
        )
        report = FailoverReport(
            epoch=0,
            winner_id=None,
            winner_lsn=None,
            candidate_lsns=(),
            primary_tip=primary_tip,
            lost_records=image.lost_records,
            acked_checked=0,
            state_digest=state.digest(),
            problems=problems,
            torn_tail=image.torn_tail,
        )
        return state, report

    def final_sync(self) -> None:
        """Nothing to sync: a single node has no replicas."""

    def convergence_problems(self) -> list[str]:
        """A single node has no replicas to diverge from."""
        return []
