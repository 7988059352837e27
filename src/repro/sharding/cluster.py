"""ShardedCluster: TPC-C partitioned by warehouse over N primaries + 2PC.

Each shard is one node — a bare
:class:`~repro.replication.group.SingleNode` primary or a
:class:`~repro.replication.group.ReplicationGroup` with its own
replicas — owning the warehouses :func:`~repro.sharding.partition.
shard_of_warehouse` maps to it.  Single-shard transactions take the
ordinary submit path; multi-shard ones (remote NewOrder stock /
Payment customers, swept via ``remote_pct``) run under the
presumed-abort two-phase commit documented in
:mod:`repro.sharding.twopc`, with every protocol message traversing a
cross-shard :class:`~repro.replication.network.SimNetwork` — so 2PC
inherits the fabric's deterministic drop / delay / duplicate / reorder
/ partition faults, and the coordinator retries each phase under a
tick deadline with capped exponential backoff plus seeded jitter.

Crash faults (``coordinator_crash`` / ``participant_crash`` at the 2PC
points, plus the ordinary engine points) kill one shard's simulated
process; recovery replays its durable log through the existing ARIES
path, rebuilds in-doubt transactions from carried ``prepare`` records,
and resolves them against the coordinator's replayed decision records
— no ``coord-commit`` record means abort.  The journal of durable
per-shard verdicts plus the coordinator bookkeeping feed the
cross-shard invariants in :mod:`repro.sharding.invariants`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

from repro import obs
from repro.engines.base import (
    AbortReason,
    COMMITTED,
    EngineStats,
    TransactionAborted,
    USER_ABORTED,
    UserAbort,
)
from repro.engines.config import EngineConfig
from repro.engines.registry import boot_node, check_system
from repro.faults.injector import (
    PREPARE_STALL,
    SimulatedCrash,
    TPC_COORDINATOR,
    TPC_PARTICIPANT,
    TPC_PREPARE,
)
from repro.lint import sanitizer
from repro.replication.group import (
    ASYNC,
    ReplicationGroup,
    ReplicationSpec,
    SingleNode,
    check_ack,
)
from repro.replication.network import SimNetwork
from repro.storage.recovery import (
    ABORTED as R_ABORTED,
    COMMITTED as R_COMMITTED,
    COORD_COMMIT,
    PREPARE,
    prepared_records,
    redo_records,
    replay,
    restore_engine,
)
from repro.sharding.partition import shard_of_warehouse
from repro.sharding.twopc import (
    ABORT,
    ACK_DURABLE,
    ACK_LAGGING,
    ACK_UNKNOWN,
    COMMIT,
    GlobalTxn,
    MAX_REPREPARES,
    MSG_DECISION,
    MSG_DECISION_ACK,
    MSG_DECISION_REQ,
    MSG_PREPARE,
    MSG_VOTE,
)
from repro.util.backoff import jittered_backoff
from repro.util.rng import child_rng
from repro.workloads.tpcc import TPCC

CRASHED = "crashed"
"""Submit outcome when the transaction died with a shard process."""

# Bytes accounted to protocol log records (markers, tiny payloads).
_MARKER_BYTES = 16
_PREPARE_BYTES = 32


def _merge_bodies(bodies: list):
    """Several same-shard sub-bodies run as one sub-transaction."""
    if len(bodies) == 1:
        return bodies[0]

    def merged(txn) -> None:
        for body in bodies:
            body(txn)

    return merged


@dataclass(frozen=True)
class ShardSpec:
    """Shape of a sharded cluster (picklable: suite tasks carry it)."""

    n_shards: int = 2
    system: str = "shore-mt"
    # Replicas *per shard* (0 = bare primaries) and the intra-shard ack
    # mode a durable decision waits on.
    replicas: int = 0
    ack: str = ASYNC
    warehouses: int | None = None  # None = max(2, n_shards)
    remote_pct: float = 10.0
    # Cross-shard fabric latency and the coordinator's per-phase
    # deadline / retry / backoff envelope.
    latency_ticks: int = 1
    deadline_ticks: int = 16
    max_retries: int = 3
    backoff_base_ticks: int = 2
    backoff_cap_ticks: int = 16
    group_commit_size: int = 4
    seed: int = 1
    engine_config: EngineConfig | None = None

    def __post_init__(self) -> None:
        check_system(self.system)
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.replicas < 0:
            raise ValueError("replicas must be >= 0")
        check_ack(self.ack)
        if not 0.0 <= self.remote_pct <= 100.0:
            raise ValueError("remote_pct must be within [0, 100]")

    def n_warehouses(self) -> int:
        return self.warehouses if self.warehouses is not None else max(2, self.n_shards)

    def replication_spec(self) -> ReplicationSpec:
        return ReplicationSpec(
            n_replicas=self.replicas, ack=self.ack, latency_ticks=self.latency_ticks
        )


@dataclass
class OpenTxn:
    """A live (locks-held) sub-transaction awaiting its 2PC decision."""

    gtid: int
    txn: object
    procedure: str
    prepared: bool = False


class Shard:
    """One partition: a node — a bare primary or a replication group."""

    def __init__(self, shard_id: int, spec: ShardSpec, boot, image_rng) -> None:
        self.shard_id = shard_id
        self.address = f"shard{shard_id}"  # its name on the cluster fabric
        if spec.replicas > 0:
            self.node = ReplicationGroup(
                spec.replication_spec(), boot, seed=spec.seed * 131 + shard_id
            )
        else:
            self.node = SingleNode(boot, image_rng)
        self.crashed = False
        self.recoveries = 0
        # Live 2PC state (dies with the process on a crash).
        self.open: dict[int, OpenTxn] = {}
        # Recovered in-doubt state: gtid -> (txn_id, coordinator shard)
        # and the carried log records awaiting the verdict.
        self.in_doubt: dict[int, tuple[int, int]] = {}
        self.in_doubt_records: dict[int, list] = {}
        # gtid -> decision durably applied here (idempotence guard).
        self.resolved: dict[int, str] = {}

    @property
    def engine(self):
        return self.node.engine

    @property
    def log(self):
        return self.node.log


class ShardedCluster:
    """N shard primaries + deterministic presumed-abort 2PC."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.workload = TPCC(warehouses=spec.n_warehouses())
        self.net = SimNetwork(latency_ticks=spec.latency_ticks)
        boot = partial(
            boot_node, spec.system, spec.engine_config, self.workload,
            spec.group_commit_size,
        )
        # Bare shards tear their crash images from one shared stream.
        image_rng = child_rng(spec.seed, "image")
        self.shards = [Shard(i, spec, boot, image_rng) for i in range(spec.n_shards)]
        for shard in self.shards:
            self.net.register(shard.address, self._make_handler(shard))
        self.injector = None
        self._jitter_rng = child_rng(spec.seed, "2pc-client")
        self._next_gtid = 1
        self.global_txns: dict[int, GlobalTxn] = {}
        # (gtid, shard) -> durable verdict on that shard ("committed" /
        # "aborted"), recorded only at forced-log moments, so a crash
        # can never roll a journal entry back.
        self.journal: dict[tuple[int, int], str] = {}
        self.total_stats = EngineStats()
        self.counters: dict[str, int] = {
            "submitted": 0, "local": 0, "cross": 0,
            "committed_global": 0, "aborted_global": 0,
            "acked_global": 0, "unacked_global": 0,
            "in_doubt_resolved": 0, "recoveries": 0, "reprepares": 0,
            "prepare_stalls": 0,
        }
        self.prepare_ticks: list[int] = []
        self.commit_ticks: list[int] = []
        self.crashes: list[tuple[str, int, int]] = []  # (point, hit, shard)
        self.problems: list[str] = []
        # The procedure submit_next most recently ran (NewOrder/Payment)
        # — the load driver labels per-operation latency samples with it.
        self.last_procedure: str = ""

    # -- engine lifecycle ----------------------------------------------------

    def attach_injector(self, injector) -> None:
        """Thread one injector through every shard's node and the fabric."""
        self.injector = injector
        for shard in self.shards:
            shard.node.attach_injector(injector)
        self.net.injector = injector

    def shard_of(self, warehouse: int) -> Shard:
        return self.shards[shard_of_warehouse(warehouse, self.spec.n_shards)]

    # -- submit --------------------------------------------------------------

    def submit_next(self, rng: random.Random) -> str:
        """Generate and run one transaction; returns its outcome.

        Crashes are absorbed: the dead shard recovers (ARIES replay,
        in-doubt rebuild, presumed-abort resolution) before returning,
        so the caller sees ``"crashed"`` rather than an exception.
        """
        # Only the caller-supplied stream may draw here; its purpose is
        # "workload" for chaos runs but e.g. "load-cluster:x1" when the
        # load driver submits, so scope on the stream's own purpose.
        with sanitizer.scope(getattr(rng, "_repro_purpose", "workload")):
            procedure, home_w, parts = self.workload.next_distributed_transaction(
                rng, remote_pct=self.spec.remote_pct
            )
        self.last_procedure = procedure
        by_shard: dict[int, list] = {}
        for warehouse, body in parts.items():
            by_shard.setdefault(
                shard_of_warehouse(warehouse, self.spec.n_shards), []
            ).append(body)
        self.counters["submitted"] += 1
        home_shard = shard_of_warehouse(home_w, self.spec.n_shards)
        bodies = {s: _merge_bodies(bs) for s, bs in by_shard.items()}
        try:
            if len(bodies) == 1:
                self.counters["local"] += 1
                outcome = self._submit_local(
                    self.shards[next(iter(bodies))], procedure, bodies.popitem()[1]
                )
            else:
                self.counters["cross"] += 1
                outcome = self._run_coordinator(
                    self.shards[home_shard], procedure, bodies
                )
        except SimulatedCrash as crash:
            self._note_crash(self.shards[home_shard], crash)
            outcome = CRASHED
        self._recover_crashed()
        return outcome

    def _submit_local(self, shard: Shard, procedure: str, body) -> str:
        outcome = shard.node.submit(procedure, body)
        if not shard.node.replicas:
            self.net.tick(1)  # keep cross-shard traffic draining
        return outcome

    # -- the coordinator -----------------------------------------------------

    def _run_coordinator(self, coord: Shard, procedure: str, bodies) -> str:
        """Drive one cross-shard transaction through presumed-abort 2PC."""
        gtid = self._next_gtid
        self._next_gtid += 1
        participants = tuple(s for s in sorted(bodies) if s != coord.shard_id)
        rec = GlobalTxn(
            gtid=gtid, procedure=procedure, home=coord.shard_id,
            participants=participants, bodies=bodies,
        )
        self.global_txns[gtid] = rec
        with obs.span(
            "twopc.txn", track="2pc", cat="sharding",
            gtid=gtid, home=coord.shard_id, n_shards=len(bodies),
        ) as txn_span:
            outcome = self._coordinate(coord, rec)
            txn_span.set(outcome=outcome, decision=rec.decision or ABORT)
            return outcome

    def _coordinate(self, coord: Shard, rec: GlobalTxn) -> str:
        if self.injector is not None:
            self.injector.fire(TPC_COORDINATOR, step="begin", gtid=rec.gtid)
        txn = coord.engine.begin(None, rec.procedure)
        try:
            rec.bodies[coord.shard_id](txn)
        except (UserAbort, TransactionAborted) as exc:
            reason = getattr(exc, "reason", AbortReason.USER)
            if not txn.done:
                txn.abort()
            coord.engine.stats.record_abort(rec.procedure, reason)
            if isinstance(exc, UserAbort):
                coord.engine.stats.user_aborts += 1
            rec.decision = ABORT
            for s in rec.participants:
                rec.acks[s] = ACK_DURABLE  # never contacted: nothing durable
            self._journal(rec, ABORT)
            self.counters["aborted_global"] += 1
            obs.inc("twopc.aborts", stage="home-body")
            return USER_ABORTED
        rec.local_txn[coord.shard_id] = txn.txn_id
        coord.open[rec.gtid] = OpenTxn(rec.gtid, txn, rec.procedure)
        rec.prepare_sent_at = self.net.clock
        self._send_prepares(coord, rec, rec.participants)
        self._await(
            lambda: rec.all_votes_in(),
            resend=lambda: self._send_prepares(
                coord, rec, tuple(s for s in rec.participants if s not in rec.votes)
            ),
        )
        if self.injector is not None:
            self.injector.fire(TPC_COORDINATOR, step="decide", gtid=rec.gtid)
        if rec.all_yes():
            outcome = self._decide_commit(coord, rec, txn)
        else:
            outcome = self._decide_abort(coord, rec, txn)
        # Drive the decision to every yes-voter until each acks durably.
        self._await(
            lambda: not rec.pending_acks(),
            resend=lambda: self._send_decisions(coord, rec, rec.pending_acks()),
        )
        rec.resolved_at = self.net.clock
        if rec.decision == COMMIT:
            self.commit_ticks.append(rec.resolved_at - rec.prepare_sent_at)
            obs.observe("twopc.commit_ticks", rec.resolved_at - rec.prepare_sent_at)
        if rec.acked and not rec.pending_acks():
            self.counters["acked_global"] += 1
        else:
            rec.acked = False
            self.counters["unacked_global"] += 1
        obs.set_gauge("twopc.in_doubt", float(self._in_doubt_count()))
        return outcome

    def _decide_commit(self, coord: Shard, rec: GlobalTxn, txn) -> str:
        # The coordinator's own prepare precedes the decision record, so
        # a crash between them leaves the home sub-txn in doubt (and the
        # replayed decision resolves it) rather than losing it.
        log = coord.log
        log.append(txn.txn_id, PREPARE, _PREPARE_BYTES,
                   payload=(rec.gtid, coord.shard_id))
        decision_rec = log.append(0, COORD_COMMIT, _MARKER_BYTES, payload=(rec.gtid,))
        log.force()  # the global commit point
        rec.decision = COMMIT
        rec.decided_at = self.net.clock
        self.prepare_ticks.append(rec.decided_at - rec.prepare_sent_at)
        obs.observe("twopc.prepare_ticks", rec.decided_at - rec.prepare_sent_at)
        self._journal(rec, COMMIT, coord.shard_id)
        if self.injector is not None:
            self.injector.fire(TPC_COORDINATOR, step="post-decision", gtid=rec.gtid)
        txn.commit()
        coord.open.pop(rec.gtid, None)
        coord.resolved[rec.gtid] = COMMIT
        coord.engine.stats.record_commit(rec.procedure)
        self.counters["committed_global"] += 1
        rec.acked = coord.node.replicate(decision_rec.lsn, txn.txn_id)
        self._send_decisions(coord, rec, rec.pending_acks())
        obs.inc("twopc.commits")
        return COMMITTED

    def _decide_abort(self, coord: Shard, rec: GlobalTxn, txn) -> str:
        if not txn.done:
            txn.abort()
        coord.open.pop(rec.gtid, None)
        coord.resolved[rec.gtid] = ABORT
        coord.engine.stats.record_abort(rec.procedure, "2pc-no-vote")
        rec.decision = ABORT
        rec.decided_at = self.net.clock
        # Presumed abort: the decision needs no durability — losing it
        # reproduces it (no coord-commit record means abort).
        coord.log.append(0, "coord-abort", _MARKER_BYTES, payload=(rec.gtid,))
        self._journal(rec, ABORT)
        # Only yes-voters hold anything durable to resolve.
        for s in rec.participants:
            if not rec.votes.get(s, False):
                rec.acks[s] = ACK_DURABLE
        rec.acked = True
        self.counters["aborted_global"] += 1
        self._send_decisions(coord, rec, rec.pending_acks())
        obs.inc("twopc.aborts", stage="decision")
        return "2pc-aborted"

    def _send_prepares(self, coord: Shard, rec: GlobalTxn, shards) -> None:
        for s in shards:
            self.net.send(
                coord.address, self.shards[s].address, MSG_PREPARE,
                (rec.gtid, coord.shard_id, rec.procedure, rec.bodies[s]),
            )

    def _send_decisions(self, coord: Shard, rec: GlobalTxn, shards) -> None:
        if rec.decision is None:
            return
        for s in shards:
            self.net.send(
                coord.address, self.shards[s].address, MSG_DECISION,
                (rec.gtid, coord.shard_id, rec.decision),
            )

    def _await(self, done, resend) -> bool:
        """Tick the fabric until *done*, resending with capped backoff."""
        spec = self.spec
        attempt = 0
        while True:
            for _ in range(spec.deadline_ticks):
                if done():
                    return True
                self.net.tick()
            if done():
                return True
            attempt += 1
            if attempt > spec.max_retries:
                return False
            with sanitizer.scope("2pc-client"):
                backoff = jittered_backoff(
                    spec.backoff_base_ticks, spec.backoff_cap_ticks,
                    attempt, self._jitter_rng,
                )
            obs.inc("twopc.retries")
            resend()
            self.net.tick(backoff)

    # -- message handlers ----------------------------------------------------

    def _make_handler(self, shard: Shard):
        dispatch = {
            MSG_PREPARE: self._on_prepare,
            MSG_VOTE: self._on_vote,
            MSG_DECISION: self._on_decision,
            MSG_DECISION_ACK: self._on_decision_ack,
            MSG_DECISION_REQ: self._on_decision_req,
        }

        def handle(message) -> None:
            if shard.crashed:
                return  # a dead process receives nothing
            handler = dispatch.get(message.kind)
            if handler is None:
                return
            try:
                handler(shard, message)
            except SimulatedCrash as crash:
                self._note_crash(shard, crash)

        return handle

    def _on_prepare(self, shard: Shard, message) -> None:
        gtid, coord_id, procedure, body = message.payload
        coord_node = self.shards[coord_id].address
        if gtid in shard.resolved:  # duplicate after the decision landed
            self.net.send(shard.address, coord_node, MSG_DECISION_ACK,
                          (gtid, shard.shard_id,
                           self._ack_status(shard, shard.resolved[gtid])))
            return
        if gtid in shard.open:  # duplicate prepare: re-vote yes
            self.net.send(shard.address, coord_node, MSG_VOTE,
                          (gtid, shard.shard_id, True,
                           shard.open[gtid].txn.txn_id))
            return
        if gtid in shard.in_doubt:  # recovered in doubt: still yes
            self.net.send(shard.address, coord_node, MSG_VOTE,
                          (gtid, shard.shard_id, True, shard.in_doubt[gtid][0]))
            return
        if self.injector is not None:
            self.injector.fire(TPC_PARTICIPANT, step="prepare", gtid=gtid)
        txn = shard.engine.begin(None, procedure)
        try:
            body(txn)
        except (UserAbort, TransactionAborted) as exc:
            if not txn.done:
                txn.abort()
            shard.engine.stats.record_abort(
                procedure, getattr(exc, "reason", AbortReason.USER)
            )
            self.net.send(shard.address, coord_node, MSG_VOTE,
                          (gtid, shard.shard_id, False, txn.txn_id))
            return
        record = shard.log.append(
            txn.txn_id, PREPARE, _PREPARE_BYTES, payload=(gtid, coord_id)
        )
        if not shard.node.replicate(record.lsn):
            # The yes vote's durability promise cannot be met: vote no.
            txn.abort()
            shard.engine.stats.record_abort(procedure, "2pc-prepare-unreplicated")
            self.net.send(shard.address, coord_node, MSG_VOTE,
                          (gtid, shard.shard_id, False, txn.txn_id))
            return
        shard.open[gtid] = OpenTxn(gtid, txn, procedure, prepared=True)
        extra = 0
        if self.injector is not None:
            stall = self.injector.soft_fault(TPC_PREPARE, gtid=gtid)
            if stall == PREPARE_STALL:
                with sanitizer.scope(PREPARE_STALL):
                    extra = self.spec.deadline_ticks + self.injector.stream(
                        PREPARE_STALL
                    ).randint(1, self.spec.deadline_ticks)
                self.counters["prepare_stalls"] += 1
        self.net.send(shard.address, coord_node, MSG_VOTE,
                      (gtid, shard.shard_id, True, txn.txn_id),
                      extra_ticks=extra)

    def _on_vote(self, shard: Shard, message) -> None:
        gtid, from_shard, yes, txn_id = message.payload
        rec = self.global_txns.get(gtid)
        if rec is None:
            return
        if yes:
            rec.local_txn[from_shard] = txn_id
        if rec.decision is not None:
            # Late or re-driven vote: answer with the decision directly.
            if yes:
                self._send_decisions(shard, rec, (from_shard,))
            elif rec.decision == COMMIT:
                self._reprepare(shard, rec, from_shard)
            return
        rec.votes.setdefault(from_shard, yes)
        if not yes:
            rec.acks[from_shard] = ACK_DURABLE  # nothing durable to resolve

    def _on_decision(self, shard: Shard, message) -> None:
        gtid, coord_id, decision = message.payload
        coord_node = self.shards[coord_id].address
        if gtid in shard.resolved:  # duplicate decision
            self.net.send(shard.address, coord_node, MSG_DECISION_ACK,
                          (gtid, shard.shard_id,
                           self._ack_status(shard, shard.resolved[gtid])))
            return
        open_txn = shard.open.pop(gtid, None)
        if open_txn is not None:
            if self.injector is not None:
                self.injector.fire(TPC_PARTICIPANT, step="decision", gtid=gtid)
            if decision == COMMIT:
                open_txn.txn.commit()
                commit_lsn = shard.log.last_commit_lsn
                shard.engine.stats.record_commit(open_txn.procedure)
                durable = shard.node.replicate(commit_lsn, open_txn.txn.txn_id)
                self._journal_one(gtid, shard.shard_id, R_COMMITTED)
                status = ACK_DURABLE if durable else ACK_LAGGING
            else:
                open_txn.txn.abort()
                shard.engine.stats.record_abort(open_txn.procedure, "2pc-decision")
                self._journal_one(gtid, shard.shard_id, R_ABORTED)
                status = ACK_DURABLE
            shard.resolved[gtid] = decision
            self.net.send(shard.address, coord_node, MSG_DECISION_ACK,
                          (gtid, shard.shard_id, status))
            return
        if gtid in shard.in_doubt:
            durable = self._apply_indoubt(shard, gtid, decision)
            self.net.send(shard.address, coord_node, MSG_DECISION_ACK,
                          (gtid, shard.shard_id,
                           ACK_DURABLE if durable else ACK_LAGGING))
            return
        # No trace of the transaction here (state lost in a failover
        # before the prepare shipped): a commit decision must be
        # re-driven, an abort needs nothing (presumed).
        status = ACK_UNKNOWN if decision == COMMIT else ACK_DURABLE
        if decision == ABORT:
            shard.resolved[gtid] = ABORT
        self.net.send(shard.address, coord_node, MSG_DECISION_ACK,
                      (gtid, shard.shard_id, status))

    def _on_decision_ack(self, shard: Shard, message) -> None:
        gtid, from_shard, status = message.payload
        rec = self.global_txns.get(gtid)
        if rec is None:
            return
        if status == ACK_UNKNOWN and rec.decision == COMMIT:
            self._reprepare(shard, rec, from_shard)
            return
        if rec.acks.get(from_shard) != ACK_DURABLE:
            rec.acks[from_shard] = status

    def _on_decision_req(self, shard: Shard, message) -> None:
        gtid, from_shard = message.payload
        rec = self.global_txns.get(gtid)
        # Presumed abort: an unknown or undecided transaction is aborted.
        decision = rec.decision if rec is not None and rec.decision else ABORT
        self.net.send(shard.address, self.shards[from_shard].address, MSG_DECISION,
                      (gtid, shard.shard_id, decision))

    def _reprepare(self, coord: Shard, rec: GlobalTxn, target: int) -> None:
        """Re-drive a decided-commit sub-txn on a shard that lost it."""
        count = rec.reprepares.get(target, 0)
        if count >= MAX_REPREPARES:
            return  # resolve_all re-drives with a healed fabric
        rec.reprepares[target] = count + 1
        self.counters["reprepares"] += 1
        obs.inc("twopc.reprepares")
        self._send_prepares(coord, rec, (target,))

    # -- journal -------------------------------------------------------------

    def _journal(self, rec: GlobalTxn, decision: str, only: int | None = None) -> None:
        status = R_COMMITTED if decision == COMMIT else R_ABORTED
        members = (only,) if only is not None else rec.members
        for s in members:
            self._journal_one(rec.gtid, s, status)

    def _journal_one(self, gtid: int, shard_id: int, status: str) -> None:
        self.journal[(gtid, shard_id)] = status

    def _in_doubt_count(self) -> int:
        return sum(len(s.in_doubt) for s in self.shards)

    # -- crash + recovery ----------------------------------------------------

    def _note_crash(self, shard: Shard, crash: SimulatedCrash) -> None:
        if shard.crashed:
            return
        shard.crashed = True
        self.total_stats.merge(shard.engine.stats)
        shard.open.clear()  # live transactions die with the process
        self.crashes.append((crash.point, crash.hit, shard.shard_id))
        obs.annotate("twopc.crash", track="2pc", cat="sharding",
                     point=crash.point, shard=shard.shard_id)

    def _recover_crashed(self) -> None:
        for shard in self.shards:
            if shard.crashed:
                self._recover(shard)

    def _recover(self, shard: Shard) -> None:
        """Restart one dead shard: replay, rebuild in-doubt, resolve."""
        with obs.span(
            "twopc.recover", track="2pc", cat="sharding", shard=shard.shard_id
        ) as span:
            state, report = shard.node.failover()
            self.problems.extend(report.problems)
            shard.crashed = False
            shard.recoveries += 1
            self.counters["recoveries"] += 1
            # Rebuild in-doubt bookkeeping from the replayed log.
            shard.in_doubt.clear()
            shard.in_doubt_records.clear()
            for txn_id in sorted(state.prepared):
                gtid, coord_id = state.prepared[txn_id]
                shard.in_doubt[gtid] = (txn_id, coord_id)
                shard.in_doubt_records[gtid] = prepared_records(state, txn_id)
            # A recovered coordinator re-learns its decisions from the
            # replayed decision records; anything it was coordinating
            # with no durable coord-commit is aborted by presumption.
            for gtid, status in sorted(state.decisions.items()):
                rec = self.global_txns.get(gtid)
                if rec is not None and rec.decision is None:
                    rec.decision = COMMIT if status == R_COMMITTED else ABORT
            for rec in self.global_txns.values():
                if rec.home == shard.shard_id and rec.decision is None:
                    rec.decision = ABORT
                    self._journal(rec, ABORT)
                    for s in rec.participants:
                        if not rec.votes.get(s, False):
                            rec.acks[s] = ACK_DURABLE
            self._resolve_in_doubt(shard)
            span.set(in_doubt=len(shard.in_doubt), recoveries=shard.recoveries)
            obs.inc("twopc.recoveries")

    def _resolve_in_doubt(self, shard: Shard) -> None:
        """Resolve recovered in-doubt transactions (home ones locally,
        the rest by querying their coordinator over the fabric)."""
        for gtid in sorted(shard.in_doubt):
            _, coord_id = shard.in_doubt[gtid]
            if coord_id == shard.shard_id:
                rec = self.global_txns.get(gtid)
                decision = rec.decision if rec is not None and rec.decision else ABORT
                self._apply_indoubt(shard, gtid, decision)
            else:
                self.net.send(shard.address, self.shards[coord_id].address,
                              MSG_DECISION_REQ, (gtid, shard.shard_id))

    def _ack_status(self, shard: Shard, decision: str) -> str:
        """Honest re-ack: a replicated shard re-verifies its commit is
        durable under the ack policy before answering ``durable``."""
        if decision != COMMIT or not shard.node.replicas:
            return ACK_DURABLE
        tip = shard.log.next_lsn - 1
        return ACK_DURABLE if shard.node.replicate(tip) else ACK_LAGGING

    def _apply_indoubt(self, shard: Shard, gtid: int, decision: str) -> bool:
        """Apply the coordinator's verdict to a recovered in-doubt txn;
        returns whether a commit verdict went durable."""
        txn_id, _ = shard.in_doubt.pop(gtid)
        records = shard.in_doubt_records.pop(gtid, [])
        log = shard.log
        durable = True
        if decision == COMMIT:
            delta = redo_records(records)
            restore_engine(delta, shard.engine)
            record = log.append(txn_id, "commit", _MARKER_BYTES)
            durable = shard.node.replicate(record.lsn, txn_id)
            self._journal_one(gtid, shard.shard_id, R_COMMITTED)
        else:
            log.append(txn_id, "abort", _MARKER_BYTES)
            self._journal_one(gtid, shard.shard_id, R_ABORTED)
        shard.resolved[gtid] = decision
        self.counters["in_doubt_resolved"] += 1
        obs.inc("twopc.in_doubt_resolved", decision=decision)
        obs.set_gauge("twopc.in_doubt", float(self._in_doubt_count()))
        return durable

    # -- shutdown ------------------------------------------------------------

    def resolve_all(self, max_rounds: int = 8) -> None:
        """Heal the fabric and drive every global txn to a final verdict."""
        self.net.heal()
        for _ in range(max_rounds):
            self._recover_crashed()
            pending = False
            for shard in self.shards:
                if shard.in_doubt:
                    pending = True
                    self._resolve_in_doubt(shard)
            for rec in self.global_txns.values():
                if rec.decision is not None and rec.pending_acks():
                    pending = True
                    self._send_decisions(self.shards[rec.home], rec,
                                         rec.pending_acks())
            self.net.run_until_quiet()
            if not pending and not any(s.crashed for s in self.shards):
                break
        # Backstop: anything still open or in doubt resolves locally
        # from the coordinator's record (presumed abort by default).
        for shard in self.shards:
            for gtid in sorted(shard.open):
                rec = self.global_txns.get(gtid)
                decision = rec.decision if rec is not None and rec.decision else ABORT
                open_txn = shard.open.pop(gtid)
                if decision == COMMIT:
                    open_txn.txn.commit()
                    shard.engine.stats.record_commit(open_txn.procedure)
                    self._journal_one(gtid, shard.shard_id, R_COMMITTED)
                else:
                    open_txn.txn.abort()
                    shard.engine.stats.record_abort(open_txn.procedure, "2pc-shutdown")
                    self._journal_one(gtid, shard.shard_id, R_ABORTED)
                shard.resolved[gtid] = decision
            for gtid in sorted(shard.in_doubt):
                rec = self.global_txns.get(gtid)
                decision = rec.decision if rec is not None and rec.decision else ABORT
                self._apply_indoubt(shard, gtid, decision)
        self.net.run_until_quiet()

    def final_states(self) -> dict[int, object]:
        """Force + replay every shard's log (call after resolve_all)."""
        states: dict[int, object] = {}
        for shard in self.shards:
            shard.log.force()
            states[shard.shard_id] = replay(shard.log)
        return states
