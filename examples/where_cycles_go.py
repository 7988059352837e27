"""Where the cycles go: the OLTP-through-the-looking-glass view.

Harizopoulos et al. (the paper's [8]) showed traditional OLTP spends
most of its time in the buffer pool, latching, locking and logging.
This example recreates that picture on the Shore-MT model with the
per-module attribution of :mod:`repro.analysis.breakdown`, then does
the same for HyPer, where all of that machinery is gone.

Run:  python examples/where_cycles_go.py
"""

from repro.analysis import profile_modules, render_breakdown
from repro.bench.runner import RunSpec
from repro.workloads import MicroBenchmark


def show(system: str) -> None:
    profiles = profile_modules(
        RunSpec(system=system).quick(), lambda: MicroBenchmark(db_bytes=100 << 30)
    )
    print(f"--- {system}: read-only micro-benchmark, 100GB ---")
    print(render_breakdown(profiles))
    print()


def main() -> None:
    show("shore-mt")
    show("hyper")
    print(
        "Shore-MT's cycles sit in the classic overheads — B-tree code,\n"
        "lock manager, buffer pool, latching — while HyPer collapses the\n"
        "whole path into a few KB of compiled code whose time is almost\n"
        "entirely long-latency data misses.  Same workload, same machine."
    )


if __name__ == "__main__":
    main()
