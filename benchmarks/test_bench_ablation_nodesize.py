"""Ablation: index node size on one engine (disk page vs cache line).

Sweeps VoltDB's tree node size from one cache line up to a disk page,
holding everything else fixed — isolating the cache-conscious-index
design choice the paper credits for the in-memory systems' low data
stalls (Sections 4.1.3, 6.1).

Expected shape: lines-touched-per-probe (and so LLC-D stalls) grows
with node size, while probe depth shrinks; the stall minimum sits at
small, line-sized nodes.
"""

from repro.bench.runner import ExperimentRunner, RunSpec
from repro.engines.config import EngineConfig
from repro.workloads.microbench import MicroBenchmark

NODE_SIZES = [256, 1024, 8192]


def run_variant(node_bytes: int):
    config = EngineConfig(
        index_kind="cc_btree", node_bytes=node_bytes
    )
    spec = RunSpec(system="voltdb", engine_config=config).quick()
    result = ExperimentRunner(
        spec, lambda: MicroBenchmark(db_bytes=100 << 30, rows_per_txn=10)
    ).run()
    return result.stalls_per_kilo_instruction.llcd, result.ipc


def test_node_size_ablation(benchmark):
    def run_all():
        return {nb: run_variant(nb) for nb in NODE_SIZES}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    for nb, (llcd, ipc) in results.items():
        print(f"  VoltDB node={nb:>5}B   LLC-D/kI={llcd:6.0f}   IPC={ipc:.2f}")
        benchmark.extra_info[f"node_{nb}"] = {"llcd_per_ki": round(llcd, 1), "ipc": round(ipc, 3)}
    assert results[8192][0] > results[256][0] * 1.3  # disk pages stall more
