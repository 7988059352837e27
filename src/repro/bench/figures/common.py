"""Cell configuration shared by the figure table, tests and benchmarks.

The paper's axes (database sizes, rows per transaction, the 100 GB TPC
scale, Section 7's systems and cores), its per-system engine
configuration, and the :class:`~repro.bench.runner.RunSpec` of one
figure cell.
"""

from __future__ import annotations

from typing import Callable

from repro.bench.runner import ExperimentRunner, RunResult, RunSpec
from repro.engines.config import EngineConfig
from repro.engines.registry import PAPER_LABELS, canonical_name
from repro.workloads.base import PAPER_DB_SIZES

MICRO_SIZES = list(PAPER_DB_SIZES)  # ["1MB", "10MB", "10GB", "100GB"]
ROWS_SWEEP = [1, 10, 100]
TPC_DB_BYTES = 100 << 30
MULTITHREADED_SYSTEMS = ["shore-mt", "dbms-d", "voltdb", "dbms-m"]
"""Section 7 drops HyPer (its demo is single-threaded only)."""

MULTITHREADED_CORES = 4
"""Workers per multi-threaded run (one partition per worker)."""


def engine_config_for(system: str, workload: str, **overrides) -> EngineConfig:
    """The paper's per-system configuration for a workload.

    DBMS M uses its hash index for the micro-benchmarks and TPC-B and
    its cache-conscious B-tree for TPC-C (Section 3).
    """
    kwargs: dict = {"materialize_threshold": 0}
    if canonical_name(system) == "dbms-m" and workload == "tpcc":
        kwargs["index_kind"] = "cc_btree"
    kwargs.update(overrides)
    return EngineConfig(**kwargs)


def cell_spec(
    system: str,
    *,
    quick: bool = False,
    engine_config: EngineConfig | None = None,
    n_cores: int = 1,
) -> RunSpec:
    """The RunSpec for one figure cell."""
    spec = RunSpec(
        system=canonical_name(system),
        engine_config=engine_config or EngineConfig(materialize_threshold=0),
        n_cores=n_cores,
    )
    return spec.quick() if quick else spec


def run_cell(
    system: str,
    workload_factory: Callable,
    *,
    quick: bool = False,
    engine_config: EngineConfig | None = None,
    n_cores: int = 1,
) -> RunResult:
    spec = cell_spec(system, quick=quick, engine_config=engine_config, n_cores=n_cores)
    return ExperimentRunner(spec, workload_factory).run()


def labels(systems: list[str]) -> list[str]:
    return [PAPER_LABELS[canonical_name(s)] for s in systems]
