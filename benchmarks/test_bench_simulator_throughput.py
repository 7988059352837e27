"""Simulator micro-benchmarks: replay-loop and index-probe throughput.

The only benches in the suite that measure *this library's* speed
rather than regenerating a paper figure — they guard the hot paths the
whole reproduction's runtime depends on.
"""

import random

from repro.core.machine import Machine
from repro.core.trace import AccessTrace
from repro.engines.common import TableSpec
from repro.engines.registry import make_engine
from repro.storage.address_space import DataAddressSpace
from repro.storage.layout_models import AnalyticBTree
from repro.storage.record import microbench_schema


def test_trace_replay_throughput(benchmark):
    """Events/second through Machine.run_trace (the hot loop).

    The same trace repeats, so after the first rounds the core's L1I
    transition memo serves every instruction line and the timing covers
    the memo-served path; rounds are not comparable with records taken
    before the memo existed.
    """
    machine = Machine()
    rng = random.Random(0)
    trace = AccessTrace()
    trace.ifetch_run(4096, 3000, module=0)
    for _ in range(500):
        trace.load(10**8 + rng.randrange(10**6), 0, serial=True)
    trace.retire(0, 48_000, base_cycles=20_000)

    events = len(trace)

    def replay():
        machine.run_trace(trace)

    benchmark(replay)
    benchmark.extra_info["events_per_round"] = events


def test_analytic_probe_throughput(benchmark):
    """Probe-path computation for a billion-key analytic B-tree."""
    index = AnalyticBTree("b", DataAddressSpace(), n_keys=1_250_000_000)
    rng = random.Random(1)
    keys = [rng.randrange(1_250_000_000) for _ in range(64)]

    def probe_batch():
        for key in keys:
            index.probe_lines(key)

    benchmark(probe_batch)


def test_engine_transaction_throughput(benchmark):
    """End-to-end transactions/second for the leanest engine (HyPer)."""
    engine = make_engine("hyper")
    engine.create_table(TableSpec("t", microbench_schema(), 10**9))
    rng = random.Random(2)

    def one_txn():
        key = rng.randrange(10**9)
        engine.execute("p", lambda txn: txn.read("t", key))

    benchmark(one_txn)
