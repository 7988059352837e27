"""Ablation: VoltDB's single-sited optimisation (Section 7's side note).

"If we do not ensure single-site transactions, the instruction stalls
of VoltDB increase significantly (by ~60%)."  The engine model carries
the multi-partition coordination path behind ``single_sited=False``;
this bench measures the delta.
"""

from repro.bench.runner import ExperimentRunner, RunSpec
from repro.engines.config import EngineConfig
from repro.workloads.microbench import MicroBenchmark


def run_variant(single_sited: bool) -> float:
    config = EngineConfig(single_sited=single_sited)
    spec = RunSpec(system="voltdb", engine_config=config).quick()
    result = ExperimentRunner(
        spec, lambda: MicroBenchmark(db_bytes=100 << 30)
    ).run()
    return result.stalls_per_kilo_instruction.instruction_total


def test_single_sited_ablation(benchmark):
    def run_both():
        return {
            "single-sited": run_variant(True),
            "multi-partition": run_variant(False),
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    increase = results["multi-partition"] / results["single-sited"] - 1.0
    print()
    for name, stalls in results.items():
        print(f"  VoltDB {name:<16} I-stalls/kI = {stalls:.0f}")
    print(f"  increase without single-siting: {increase:.0%} (paper: ~60%)")
    benchmark.extra_info["increase_pct"] = round(100 * increase, 1)
    assert 0.25 < increase < 1.2
