"""Replicated WAL shipping tests.

Covers the SimNetwork fabric (latency, FIFO delivery, injectable
drop/delay/duplicate/reorder/partition faults, partition auto-heal),
Replica log ingestion (out-of-order buffering, duplicate and torn-record
rejection, epoch fencing), the three client ack modes, deterministic
LSN-based failover with the no-acked-txn-lost check, and cross-node
convergence after retransmission repairs.
"""

import pytest

from repro.engines.base import COMMITTED
from repro.engines.common import TableSpec
from repro.engines.registry import make_engine
from repro.faults import (
    FaultInjector,
    FaultSpec,
    NET_DELAY,
    NET_DELIVER,
    NET_DROP,
    NET_DUPLICATE,
    NET_PARTITION,
    NET_REORDER,
    NET_SEND,
)
from repro.replication import (
    ASYNC,
    PRIMARY_NODE,
    QUORUM,
    Replica,
    ReplicationGroup,
    ReplicationSpec,
    SYNC_ONE,
    SimNetwork,
    SingleNode,
)
from repro.storage.record import microbench_schema
from repro.storage.wal import LogRecord, record_checksum, torn_copy
from repro.util.rng import child_rng

N_ROWS = 200


def _record(lsn, txn_id=1, kind="update", payload=("t", 0, (0, 0))):
    return LogRecord(
        lsn=lsn, txn_id=txn_id, kind=kind, payload_bytes=16, payload=payload,
        checksum=record_checksum(lsn, txn_id, kind, 16, payload),
    )


def _engine_factory(system="shore-mt"):
    def factory():
        engine = make_engine(system)
        log = engine.recovery_log()
        log.retain_all = True
        engine.create_table(TableSpec("t", microbench_schema(), N_ROWS, grows=True))
        return engine, log

    return factory


def _group(ack=QUORUM, n_replicas=2, seed=1, **spec_overrides):
    spec = ReplicationSpec(n_replicas=n_replicas, ack=ack, **spec_overrides)
    return ReplicationGroup(spec, _engine_factory(), seed=seed)


class TestSimNetwork:
    def _fabric(self, specs=(), seed=1):
        net = SimNetwork()
        inbox = []
        net.register("a", inbox.append)
        net.register("b", inbox.append)
        if specs:
            net.injector = FaultInjector(list(specs), seed=seed)
        return net, inbox

    def test_delivers_after_latency_in_fifo_order(self):
        net, inbox = self._fabric()
        net.send("a", "b", "ship", (1,))
        net.send("a", "b", "ship", (2,))
        assert inbox == []  # nothing delivered before the latency elapses
        net.tick()
        assert [m.payload for m in inbox] == [(1,), (2,)]
        assert net.counters["delivered"] == 2

    def test_unknown_destination_rejected(self):
        net, _ = self._fabric()
        with pytest.raises(KeyError, match="unknown destination"):
            net.send("a", "nowhere", "ship", ())

    def test_drop_fault_loses_the_message(self):
        net, inbox = self._fabric([FaultSpec(NET_SEND, kind=NET_DROP, at_hit=1)])
        net.send("a", "b", "ship", (1,))
        net.run_until_quiet()
        assert inbox == []
        assert net.counters["dropped"] == 1

    def test_duplicate_fault_delivers_twice(self):
        net, inbox = self._fabric([FaultSpec(NET_SEND, kind=NET_DUPLICATE, at_hit=1)])
        net.send("a", "b", "ship", (1,))
        net.run_until_quiet()
        assert [m.payload for m in inbox] == [(1,), (1,)]

    def test_delay_fault_defers_delivery(self):
        net, inbox = self._fabric([FaultSpec(NET_SEND, kind=NET_DELAY, at_hit=1)])
        net.send("a", "b", "ship", (1,))
        net.tick()  # the regular latency elapses; the message is still out
        assert inbox == []
        net.run_until_quiet()
        assert [m.payload for m in inbox] == [(1,)]
        assert net.counters["delayed"] == 1

    def test_reorder_fault_lets_next_message_overtake(self):
        net, inbox = self._fabric([FaultSpec(NET_SEND, kind=NET_REORDER, at_hit=1)])
        net.send("a", "b", "ship", (1,))
        net.send("a", "b", "ship", (2,))
        net.run_until_quiet()
        assert [m.payload for m in inbox] == [(2,), (1,)]

    def test_partition_fault_isolates_sender_then_heals(self):
        net, inbox = self._fabric([FaultSpec(NET_SEND, kind=NET_PARTITION, at_hit=1)])
        net.send("a", "b", "ship", (1,))  # triggers the partition, msg lost
        assert net.partition_active
        assert net.partitioned("a", "b")
        net.send("a", "b", "ship", (2,))  # crosses the cut: dropped at send
        net.tick(30)  # partition lengths are 8..24 ticks: heal point passed
        assert inbox == []
        assert not net.partition_active
        net.send("a", "b", "ship", (3,))
        net.run_until_quiet()
        assert [m.payload for m in inbox] == [(3,)]

    def test_partition_severs_in_flight_traffic(self):
        net, inbox = self._fabric()
        net.send("a", "b", "ship", (1,))  # in flight
        net.partition({"a"}, ticks=5)
        net.tick()  # delivery attempt happens behind the cut
        assert inbox == []
        assert net.counters["partition_drops"] == 1

    def test_heal_clears_partition_immediately(self):
        net, _ = self._fabric()
        net.partition({"a"}, ticks=100)
        net.heal()
        assert not net.partition_active
        assert not net.partitioned("a", "b")

    def test_deliver_point_faults_fire_too(self):
        net, inbox = self._fabric([FaultSpec(NET_DELIVER, kind=NET_DROP, at_hit=1)])
        net.send("a", "b", "ship", (1,))
        net.run_until_quiet()
        assert inbox == []
        assert net.counters["dropped"] == 1


class TestReplica:
    def test_out_of_order_batches_buffer_until_contiguous(self):
        replica = Replica(0)
        assert replica.receive(1, (_record(2),)) == 0  # gap: buffered
        assert replica.pending
        assert replica.receive(1, (_record(1),)) == 2  # gap filled, both land
        assert [r.lsn for r in replica.records] == [1, 2]
        assert replica.applied_lsn == 2

    def test_duplicates_ignored(self):
        replica = Replica(0)
        replica.receive(1, (_record(1), _record(2)))
        assert replica.receive(1, (_record(1), _record(2))) == 2
        assert [r.lsn for r in replica.records] == [1, 2]

    def test_torn_in_flight_record_rejected(self):
        replica = Replica(0)
        assert replica.receive(1, (torn_copy(_record(1)),)) == 0
        assert replica.records == []

    def test_stale_epoch_ignored(self):
        replica = Replica(0)
        replica.receive(1, (_record(1),))
        replica.reset(2)
        assert replica.receive(1, (_record(2),)) == 0  # old-epoch ship
        assert replica.records == []

    def test_digest_tracks_content(self):
        a, b = Replica(0), Replica(1)
        a.receive(1, (_record(1),))
        b.receive(1, (_record(1),))
        assert a.digest() == b.digest()
        b.receive(1, (_record(2),))
        assert a.digest() != b.digest()


class TestReplicationSpec:
    def test_needs_a_replica(self):
        with pytest.raises(ValueError, match="n_replicas"):
            ReplicationSpec(n_replicas=0)

    def test_unknown_ack_mode_rejected(self):
        with pytest.raises(ValueError, match="ack mode"):
            ReplicationSpec(ack="paxos")

    def test_quorum_size_is_majority_including_primary(self):
        assert ReplicationSpec(n_replicas=1).quorum_size() == 2
        assert ReplicationSpec(n_replicas=2).quorum_size() == 2
        assert ReplicationSpec(n_replicas=4).quorum_size() == 3


class TestAckModes:
    def _submit_some(self, group, n=10):
        for i in range(n):
            outcome = group.submit(
                "p", lambda txn, v=i: txn.update("t", v % N_ROWS, "value", v)
            )
            assert outcome == COMMITTED

    @pytest.mark.parametrize("ack", [ASYNC, SYNC_ONE, QUORUM])
    def test_healthy_fabric_acks_and_converges(self, ack):
        group = _group(ack=ack)
        self._submit_some(group)
        assert group.acked_count == 10
        assert group.unacked_count == 0
        group.final_sync()
        assert group.convergence_problems() == []
        digests = group.replica_digests()
        assert len(set(digests)) == 1  # replicas byte-identical

    def test_durable_modes_track_acked_txns(self):
        group = _group(ack=QUORUM)
        self._submit_some(group, n=5)
        assert len(group.acked) == 5
        tip = group.log.last_commit_lsn
        assert max(group.acked.values()) <= tip

    def test_async_promises_nothing(self):
        group = _group(ack=ASYNC)
        self._submit_some(group, n=5)
        assert group.acked == {}  # nothing to check at failover

    def test_total_drop_exhausts_retries_and_backs_off(self):
        group = _group(ack=SYNC_ONE, deadline_ticks=4, max_ack_retries=2)
        group.net.injector = FaultInjector(
            [FaultSpec(NET_SEND, kind=NET_DROP, probability=1.0, times=-1)]
        )
        outcome = group.submit("p", lambda txn: txn.update("t", 0, "value", 1))
        assert outcome == COMMITTED  # locally committed, never acked
        assert group.unacked_count == 1
        assert group.ack_retries == 2
        assert group.backoff_ticks >= 2 + 4  # capped exponential: base, 2*base
        assert group.acked == {}  # unacked txns carry no durability promise

    def test_retransmission_repairs_a_dropped_ship(self):
        group = _group(ack=SYNC_ONE, n_replicas=1, deadline_ticks=4)
        # Drop exactly the first ship; the retry path must re-send it.
        group.net.injector = FaultInjector(
            [FaultSpec(NET_SEND, kind=NET_DROP, at_hit=1)]
        )
        outcome = group.submit("p", lambda txn: txn.update("t", 0, "value", 1))
        assert outcome == COMMITTED
        assert group.acked_count == 1
        assert group.ack_retries >= 1


class TestFailover:
    def test_election_prefers_highest_lsn_then_lowest_id(self):
        group = _group(n_replicas=3)
        group.replicas[0].durable_lsn = 5
        group.replicas[1].durable_lsn = 9
        group.replicas[2].durable_lsn = 9
        assert group._elect().replica_id == 1  # tie at 9 falls to lower id

    def test_failover_restores_acked_state_and_bumps_epoch(self):
        group = _group(ack=QUORUM)
        for i in range(8):
            group.submit("p", lambda txn, v=i: txn.update("t", v, "value", v + 100))
        acked_before = dict(group.acked)
        state, report = group.failover()
        assert report.problems == []
        assert report.acked_checked == len(acked_before)
        assert report.winner_lsn == max(report.candidate_lsns)
        assert group.epoch == 2
        for txn_id in acked_before:
            assert state.txn_status[txn_id] == "committed"
        # The new primary serves reads of every acked write.
        for i in range(8):
            assert group.engine.committed_row("t", i)[1] == i + 100
        # The group keeps working after the failover.
        group.submit("p", lambda txn: txn.update("t", 0, "value", 999))
        group.final_sync()
        assert group.convergence_problems() == []

    def test_lost_acked_txn_is_detected(self):
        group = _group(ack=QUORUM)
        group.submit("p", lambda txn: txn.update("t", 0, "value", 1))
        # Claim an ack the replicas never saw: failover must flag it.
        group.acked[9999] = 10_000_000
        _, report = group.failover()
        assert any(p.startswith("no-acked-txn-lost") for p in report.problems)

    def test_partitioned_majority_blocks_quorum_until_heal(self):
        group = _group(ack=QUORUM, deadline_ticks=4, max_ack_retries=1)
        group.net.partition({PRIMARY_NODE}, ticks=10_000)
        outcome = group.submit("p", lambda txn: txn.update("t", 0, "value", 1))
        assert outcome == COMMITTED
        assert group.unacked_count == 1  # no majority reachable
        # final_sync heals the cut and repairs the replicas.
        group.final_sync()
        assert group.convergence_problems() == []

    def test_failover_during_partition_elects_from_drained_state(self):
        group = _group(ack=SYNC_ONE)
        for i in range(5):
            group.submit("p", lambda txn, v=i: txn.update("t", v, "value", v))
        group.net.partition({PRIMARY_NODE}, ticks=10_000)
        group.submit("p", lambda txn: txn.update("t", 7, "value", 7))
        _, report = group.failover()  # drains, elects, recovers
        assert report.problems == []
        group.final_sync()
        assert group.convergence_problems() == []


class TestNodeContract:
    """Chaos, load and sharding drive either kind of node alike."""

    NODES = {
        "single": lambda: SingleNode(_engine_factory(), child_rng(1, "image")),
        "group": lambda: _group(ack=QUORUM, n_replicas=2),
    }

    @pytest.mark.parametrize("kind", sorted(NODES))
    def test_submit_failover_reattaches_injector(self, kind):
        node = self.NODES[kind]()
        injector = FaultInjector(seed=3)
        node.attach_injector(injector)
        for i in range(6):
            outcome = node.submit(
                "p", lambda txn, v=i: txn.update("t", v, "value", v + 50)
            )
            assert outcome == COMMITTED
            node.ship()
        assert node.replicate(node.log.next_lsn - 1, None)
        dead = node.engine
        state, report = node.failover()
        assert node.engine is not dead
        assert node.injector is injector
        assert node.engine.injector is injector
        assert node.log is node.engine.recovery_log()
        assert node.log.injector is injector
        assert report.problems == []
        assert report.state_digest == state.digest()
        # Every commit was forced (single) or quorum-acked (group) before
        # the failover, so the restarted primary serves all of them.
        for i in range(6):
            assert node.engine.committed_row("t", i)[1] == i + 50
        assert node.submit("p", lambda txn: txn.update("t", 0, "value", 7)) == COMMITTED
        node.ship()
        node.final_sync()
        assert node.convergence_problems() == []
        if kind == "single":
            assert node.replicas == []
            assert (report.winner_id, report.winner_lsn, report.epoch) == (None, None, 0)
        else:
            assert len(node.replicas) == 2
            assert report.winner_id is not None and report.epoch == 1


class TestDeterminism:
    def _digests(self, seed):
        group = _group(ack=QUORUM, seed=seed)
        group.net.injector = FaultInjector(
            [FaultSpec(NET_SEND, kind=NET_DELAY, probability=0.2, times=-1)],
            seed=seed,
        )
        for i in range(12):
            group.submit("p", lambda txn, v=i: txn.update("t", v, "value", v))
        group.final_sync()
        assert group.convergence_problems() == []
        return group.replica_digests(), group.primary_log_digest()

    def test_same_seed_same_replica_logs(self):
        assert self._digests(5) == self._digests(5)


class _ScanShipGroup(ReplicationGroup):
    """Reference shipping: the full-history scans the LSN slices replaced."""

    def _capture_history(self) -> None:
        new = [r for r in self.log.records if r.lsn > self._history_tip]
        if new:
            self.history.extend(new)
            self._history_tip = new[-1].lsn

    def ship(self) -> None:
        self._capture_history()
        for replica in self.replicas:
            cursor = self._sent_lsn[replica.replica_id]
            batch = tuple(r for r in self.history if r.lsn > cursor)
            if batch:
                self.net.send(PRIMARY_NODE, replica.node, "ship", (self.epoch, batch))
                self._sent_lsn[replica.replica_id] = self._history_tip


class TestShipSlices:
    """ship and its history capture slice at LSN cursors; every batch
    must equal the reference scan's, across retransmits and a failover."""

    @staticmethod
    def _ship_log(group_class, seed):
        spec = ReplicationSpec(n_replicas=2, ack=QUORUM, deadline_ticks=4)
        group = group_class(spec, _engine_factory(), seed=seed)
        group.net.injector = FaultInjector(
            [FaultSpec(NET_SEND, kind=NET_DROP, probability=0.3, times=-1)], seed=seed
        )
        shipped = []
        send = group.net.send

        def recording_send(src, dst, kind, payload):
            if kind == "ship":
                epoch, batch = payload
                shipped.append((dst, epoch, tuple((r.lsn, r.kind, r.payload) for r in batch)))
            send(src, dst, kind, payload)

        group.net.send = recording_send
        for i in range(15):
            group.submit("p", lambda txn, v=i: txn.update("t", v % N_ROWS, "value", v))
        group.failover()  # epoch reset: history and cursors restart at 0
        for i in range(10):
            group.submit("p", lambda txn, v=i: txn.update("t", v, "value", -v))
        group.final_sync()
        return shipped, group.epoch, group.primary_log_digest(), group.replica_digests()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_batches_match_the_reference_scan(self, seed):
        sliced = self._ship_log(ReplicationGroup, seed)
        scanned = self._ship_log(_ScanShipGroup, seed)
        assert sliced[1] == 2  # the failover happened
        assert any(epoch == 2 for _, epoch, _ in sliced[0])
        assert sliced == scanned
