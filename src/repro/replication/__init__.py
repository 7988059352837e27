"""Replicated WAL shipping over a deterministic simulated network.

Public surface:

* :class:`SimNetwork` / :class:`Message` — seeded, tick-driven message
  fabric with injectable drop / delay / duplicate / reorder / partition
  faults;
* :class:`ReplicationGroup` / :class:`ReplicationSpec` — one primary
  engine plus N log-shipping :class:`Replica` nodes, with async /
  sync-one / quorum client acks and deterministic LSN-based failover
  (:class:`FailoverReport`);
* :class:`SingleNode` — a bare primary with the group's node interface,
  so chaos, load and sharding drive either kind of node the same way;
* ``ACK_MODES`` — the three client acknowledgement modes.

The chaos harness (:mod:`repro.faults.chaos`) drives a group with
``ChaosSpec(replicas=N, ack=...)``; the network fault kinds live in
:mod:`repro.faults.injector` next to crash/abort.
"""

from repro.replication.group import (
    ACK_MODES,
    ASYNC,
    FailoverReport,
    PRIMARY_NODE,
    QUORUM,
    Replica,
    ReplicationGroup,
    ReplicationSpec,
    SYNC_ONE,
    SingleNode,
)
from repro.replication.network import Message, SimNetwork

__all__ = [
    "ACK_MODES",
    "ASYNC",
    "FailoverReport",
    "Message",
    "PRIMARY_NODE",
    "QUORUM",
    "Replica",
    "ReplicationGroup",
    "ReplicationSpec",
    "SYNC_ONE",
    "SimNetwork",
    "SingleNode",
]
