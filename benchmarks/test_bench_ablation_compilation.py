"""Ablation: compilation aggressiveness sweep.

HyPer compiles to ~3% of the interpreted footprint, DBMS M to ~18%
(Section 6.1's "less aggressively than HyPer").  This sweep varies the
compiled-footprint factor on the DBMS M engine and shows the paper's
trade-off forming: instruction stalls fall as compilation gets more
aggressive, while data stalls per kilo-instruction rise because each
instruction now carries more random accesses.
"""

import pytest

from repro.bench.runner import ExperimentRunner, RunSpec
from repro.codegen import compiler as compiler_mod
from repro.codegen.compiler import CompilerProfile
from repro.engines.config import EngineConfig
from repro.workloads.microbench import MicroBenchmark

FACTORS = [0.05, 0.18, 0.60]


def run_variant(factor: float, monkeypatch):
    profile = CompilerProfile(
        name=f"sweep-{factor}",
        footprint_factor=factor,
        min_footprint_bytes=2048,
        branches_per_kilo_instruction=90.0,
        mispredict_rate=0.02,
    )
    monkeypatch.setattr(compiler_mod, "DBMS_M_COMPILER", profile)
    import repro.engines.dbms_m as dbms_m_mod

    monkeypatch.setattr(dbms_m_mod, "DBMS_M_COMPILER", profile)
    config = EngineConfig(index_kind="hash", compilation=True)
    spec = RunSpec(system="dbms-m", engine_config=config).quick()
    result = ExperimentRunner(
        spec, lambda: MicroBenchmark(db_bytes=100 << 30, rows_per_txn=10)
    ).run()
    per_txn = result.stalls_per_transaction
    per_ki = result.stalls_per_kilo_instruction
    return per_txn.instruction_total, per_ki.llcd


def test_compilation_aggressiveness(benchmark, monkeypatch):
    def run_all():
        return {f: run_variant(f, monkeypatch) for f in FACTORS}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    for factor, (instr, llcd) in results.items():
        print(f"  footprint factor {factor:.2f}   I-stalls/txn={instr:7.0f}   LLC-D/kI={llcd:6.0f}")
        benchmark.extra_info[f"factor_{factor}"] = {
            "instr_stalls_per_txn": round(instr, 1),
            "llcd_per_ki": round(llcd, 1),
        }
    # More aggressive compilation -> fewer instruction stalls per txn ...
    assert results[0.05][0] < results[0.60][0]
    # ... and relatively more data stalls per instruction.
    assert results[0.05][1] > results[0.60][1]
