"""TPC-C deep dive: where do a transaction's cycles go?

Runs TPC-C on a disk-based system (DBMS D) and an in-memory one
(VoltDB), then prints the per-code-module cycle attribution the paper's
Figure 7 is built from — the VTune-style module breakdown showing how
much time each system spends inside vs outside its OLTP engine.

Run:  python examples/tpcc_study.py
"""

from repro.bench import ExperimentRunner, RunSpec
from repro.engines import PAPER_LABELS
from repro.engines.config import EngineConfig
from repro.workloads import TPCC


def study(system: str) -> None:
    config = EngineConfig(
        index_kind="cc_btree" if system == "dbms-m" else None,
    )
    spec = RunSpec(system=system, engine_config=config).quick()
    result = ExperimentRunner(spec, lambda: TPCC(db_bytes=100 << 30)).run()

    print(f"--- {PAPER_LABELS[system]} running TPC-C (100GB scale) ---")
    print(f"IPC {result.ipc:.2f}   instructions/txn {result.instructions_per_txn:,.0f}")
    total = sum(result.module_cycles.values())
    print("cycle attribution by code module:")
    ranked = sorted(result.module_cycles.items(), key=lambda kv: -kv[1])
    for name, cycles in ranked:
        group = result.module_groups.get(name, "?")
        print(f"  {name:<22} [{group:<6}] {100 * cycles / total:5.1f}%")
    print(f"inside the OLTP engine: {100 * result.engine_time_fraction():.1f}%")
    print()


def main() -> None:
    study("dbms-d")
    study("voltdb")
    print(
        "DBMS D spends most of its time in the SQL stack around the engine;\n"
        "VoltDB's stored procedures push most cycles into the execution\n"
        "engine once transactions carry enough work (Figure 7)."
    )


if __name__ == "__main__":
    main()
