"""Multi-core engine behaviour: the Section 7 execution mode."""

import random

import pytest

from repro.core.machine import Machine
from repro.core.spec import IVY_BRIDGE
from repro.engines.common import TableSpec
from repro.engines.config import EngineConfig
from repro.engines.registry import make_engine
from repro.storage.record import microbench_schema
from repro.workloads.microbench import MicroBenchmark


def run_multicore(system: str, n_cores: int = 2, txns: int = 40, partitioned=False):
    config = EngineConfig(
        n_partitions=n_cores if partitioned else 1,
    )
    engine = make_engine(system, config)
    wl = MicroBenchmark(db_bytes=1 << 20, read_write=True)
    wl.setup(engine)
    machine = Machine(IVY_BRIDGE, n_cores=n_cores)
    rng = random.Random(0)
    for i in range(txns):
        core = i % n_cores
        partition = core if partitioned else None
        proc, body = wl.next_transaction(
            rng, partition=partition, n_partitions=n_cores
        )
        machine.run_trace(engine.execute(proc, body, core_id=core), core_id=core)
    return engine, machine


class TestSharedStructures:
    def test_shared_engines_incur_coherence_traffic(self):
        """Shore-MT workers share the lock table and WAL buffer: writes
        from one core invalidate the other's copies."""
        _, machine = run_multicore("shore-mt")
        total = machine.total_counters()
        assert total.coherence_misses > 0

    def test_partitioned_voltdb_single_sited_avoids_sharing(self):
        """Each worker owns its partition; the command log is the only
        shared write target, so coherence traffic stays minimal."""
        _, shared_machine = run_multicore("shore-mt")
        _, part_machine = run_multicore("voltdb", partitioned=True)
        shared = shared_machine.total_counters()
        part = part_machine.total_counters()
        ratio_shared = shared.coherence_misses / max(1, shared.transactions)
        ratio_part = part.coherence_misses / max(1, part.transactions)
        assert ratio_part < ratio_shared

    def test_per_core_counters_both_active(self):
        _, machine = run_multicore("dbms-m")
        assert machine.counters[0].transactions == 20
        assert machine.counters[1].transactions == 20
        assert machine.counters[0].instructions > 0
        assert machine.counters[1].instructions > 0


class TestCorrectnessUnderInterleaving:
    @pytest.mark.parametrize("system", ["shore-mt", "dbms-m", "voltdb"])
    def test_round_robin_commits_all_visible(self, system):
        """Writes from both workers land; a final reader sees them all."""
        config = EngineConfig()
        engine = make_engine(system, config)
        engine.create_table(TableSpec("t", microbench_schema(), 1000))
        for i in range(30):
            key = i  # disjoint keys: no aborts expected
            engine.execute(
                "p", lambda txn, k=key, v=i: txn.update("t", k, "value", 1000 + v),
                core_id=i % 2,
            )
        results = {}
        engine.execute(
            "check", lambda txn: results.update({k: txn.read("t", k) for k in range(30)})
        )
        assert all(results[k][1] == 1000 + k for k in range(30))
        assert engine.stats.retries_exhausted == 0
