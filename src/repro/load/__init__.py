"""Open-loop load driver: millions of simulated clients as arrival streams.

Everything shipped so far runs **closed-loop**: worker threads issue
transactions back-to-back, so the measured rate *is* the offered rate
and the system can never be overloaded by construction.  This package
models the other regime — the one capacity planning actually cares
about: N simulated clients (target: 1M+) submit transactions according
to an **arrival process** that does not care whether the server keeps
up.  When the offered load exceeds capacity, requests queue, latency
percentiles explode, and throughput saturates — the curves this driver
reports.

Clients are *seeded arrival streams*, not threads: a cohort of clients
shares one :func:`repro.util.rng.child_rng` stream that generates the
cohort's merged arrival process (for Poisson arrivals the superposition
of n independent client processes of rate r/n **is** one process of
rate r, so cohort aggregation is exact, not an approximation).  Memory
is O(streams + events), never O(clients) — a million clients cost the
same as a hundred.

Layering:

* :mod:`repro.load.arrivals` — seeded Poisson / bursty / flash-crowd
  arrival streams with per-client think times, merged into one
  deterministic virtual-time timeline;
* :mod:`repro.load.scenarios` — transaction mixes (read-only /
  read-write / write-only / incremental-write, mirroring the locust
  scenario files of the sqlite-performance repo) with Zipf hot-key
  skew;
* :mod:`repro.load.driver` — the open-loop event-queue scheduler:
  replays the timeline against a node (a
  :class:`~repro.replication.group.SingleNode` or a
  :class:`~repro.replication.group.ReplicationGroup`) or a
  :class:`~repro.sharding.cluster.ShardedCluster`, tracking queueing
  delay separately from service time;
* :mod:`repro.load.report` — nearest-rank latency percentiles
  (p50/p99/p999), throughput-vs-offered-load saturation curves, and
  the timestamped record ``repro-bench load`` stores as a ``load`` run.

Exposed on the CLI as ``repro-bench load``; results are bit-identical
serial vs ``--jobs N`` and sanitized vs plain.
"""

from repro.load.arrivals import (
    ARRIVAL_PROCESSES,
    ArrivalSpec,
    LoadEvent,
    build_timeline,
    timeline_digest,
)
from repro.load.driver import LoadPointResult, LoadResult, LoadSpec, run_load
from repro.load.report import load_record, render_load_report
from repro.load.scenarios import MIXES, Mix

__all__ = [
    "ARRIVAL_PROCESSES",
    "ArrivalSpec",
    "LoadEvent",
    "LoadPointResult",
    "LoadResult",
    "LoadSpec",
    "MIXES",
    "Mix",
    "build_timeline",
    "load_record",
    "render_load_report",
    "run_load",
    "timeline_digest",
]
