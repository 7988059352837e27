"""The figure table: every table and figure of the paper by id.

The paper takes IPC, stalls/kI, stalls/txn and module % from one
profiled run per configuration, so several figures read one
:class:`Experiment` (an ordered grid of cells, built by :func:`grid`)
through different metrics: a figure is a :class:`View` of one, or a text
renderer.  :func:`run_figures` runs the distinct cells of every
requested figure once and reads each panel out of the shared results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bench import validate
from repro.bench.figures.common import (
    MICRO_SIZES,
    MULTITHREADED_CORES,
    MULTITHREADED_SYSTEMS,
    ROWS_SWEEP,
    TPC_DB_BYTES,
    cell_spec,
    engine_config_for,
    labels,
)
from repro.bench.parallel import CellTask, WorkloadSpec, run_cells, workload_spec
from repro.bench.report import render_table1
from repro.bench.results import (
    IPC,
    PERCENT_ENGINE,
    STALLS_PER_KI,
    STALLS_PER_TXN,
    FigureResult,
)
from repro.core.spec import IVY_BRIDGE
from repro.engines.config import EngineConfig
from repro.engines.registry import ALL_SYSTEMS, PAPER_LABELS, canonical_name
from repro.sharding.cluster import COMMITTED, ShardSpec, ShardedCluster
from repro.storage.record import LONG, STRING50
from repro.util.fanout import using_jobs
from repro.util.rng import root_rng
from repro.workloads.base import PAPER_DB_SIZES


@dataclass(frozen=True)
class Experiment:
    """An ordered grid: system x x value -> one cell.

    *workload* maps an x value to the cell's workload and *config* maps
    (system, x value) to its engine configuration.
    """

    x_label: str
    systems: tuple[str, ...]
    x_values: tuple[str, ...]
    workload: Callable[[str], WorkloadSpec]
    config: Callable[[str, str], EngineConfig]
    n_cores: int = 1


def grid(
    experiment: Experiment,
    *,
    quick: bool = False,
    systems: tuple[str, ...] = (),
    x_values: tuple[str, ...] = (),
) -> list[tuple[str, str, CellTask]]:
    """(system label, x value, cell) in system-major order.

    *systems* / *x_values* pick a subset of the experiment's axes; empty
    means all of them.
    """
    keyed_cells = []
    for system in systems or experiment.systems:
        for x in x_values or experiment.x_values:
            config = experiment.config(system, x)
            spec = cell_spec(
                system, quick=quick, engine_config=config, n_cores=experiment.n_cores
            )
            cell = CellTask(spec, experiment.workload(x))
            keyed_cells.append((PAPER_LABELS[canonical_name(system)], x, cell))
    return keyed_cells


def _paper_config(workload: str) -> Callable[[str, str], EngineConfig]:
    return lambda system, _x: engine_config_for(system, workload)


# Sections 5.1 / A.1: the micro-benchmark, 1 row per transaction, all
# five systems, database size swept across the LLC boundary.
def _micro_size(read_write: bool) -> Experiment:
    return Experiment(
        "database size", ALL_SYSTEMS, tuple(MICRO_SIZES),
        lambda size: workload_spec(
            "micro", db_bytes=PAPER_DB_SIZES[size], rows_per_txn=1, read_write=read_write
        ),
        _paper_config("micro"),
    )


# Sections 5.1 / A.2: work per transaction on the 100 GB database,
# rows/txn swept over 1, 10, 100.
def _micro_rows(read_write: bool) -> Experiment:
    return Experiment(
        "rows per txn", ALL_SYSTEMS, tuple(str(r) for r in ROWS_SWEEP),
        lambda rows: workload_spec(
            "micro",
            db_bytes=TPC_DB_BYTES,
            rows_per_txn=int(rows),
            read_write=read_write,
            column_type=LONG,
        ),
        _paper_config("micro"),
    )


# Section 5.2: TPC-B and TPC-C at 100 GB scale, single worker thread.
def _tpc(benchmark: str, label: str) -> Experiment:
    return Experiment(
        "benchmark", ALL_SYSTEMS, (label,),
        lambda _x: workload_spec(benchmark, db_bytes=TPC_DB_BYTES),
        _paper_config(benchmark),
    )


INDEX_CONFIGS = {
    label: EngineConfig(index_kind=kind, compilation=compiled)
    for label, kind, compiled in [
        ("Hash w/ compilation", "hash", True),
        ("Hash w/o compilation", "hash", False),
        ("B-tree w/ compilation", "cc_btree", True),
        ("B-tree w/o compilation", "cc_btree", False),
    ]
}


# Section 6.1 / A.3: DBMS M is the one system that exposes both knobs —
# hash index vs cache-conscious B-tree, compilation on vs off.  On the
# micro-benchmark (10 rows per transaction, 100 GB) compilation roughly
# halves the instruction stalls for either index, and the B-tree's LLC
# data stalls run 2-4x the hash index's (a tree probe chases many more
# pointers than a bucket lookup).  On TPC-C compilation cuts instruction
# stalls for both index types — and without compilation the B-tree's
# are much higher than the hash index's; data stalls stay small because
# TPC-C makes far fewer random reads than the micro-benchmark.
def _index_compilation(workload: WorkloadSpec) -> Experiment:
    return Experiment(
        "configuration", ("dbms-m",), tuple(INDEX_CONFIGS),
        lambda _x: workload,
        lambda _system, x: INDEX_CONFIGS[x],
    )


DATA_TYPES = {"String": STRING50, "Long": LONG}


# Section 6.2 / A.3: the micro-benchmark's two Long columns swapped for
# two 50-byte Strings (1 row per transaction, 100 GB).  LLC data stalls
# are *lower* for String than Long on the tree-indexed systems — a
# 50-byte value spans most of a cache line, so comparisons re-use
# fetched lines — while hash-indexed DBMS M shows no significant
# difference.  Read-write narrows the gap: the update's write re-uses
# the line the read just fetched.
def _data_types(read_write: bool) -> Experiment:
    return Experiment(
        "data type", ("voltdb", "hyper", "dbms-m"), tuple(DATA_TYPES),
        lambda label: workload_spec(
            "micro",
            db_bytes=TPC_DB_BYTES,
            rows_per_txn=1,
            read_write=read_write,
            column_type=DATA_TYPES[label],
        ),
        _paper_config("micro"),
    )


# Section 7: one worker per core, whole transactions interleaved
# round-robin, partitioned engines homed single-sited, and counters
# averaged per worker.  HyPer is excluded (its demo is single-threaded).
def _multithreaded(workload: WorkloadSpec, kind: str, label: str) -> Experiment:
    return Experiment(
        "benchmark", tuple(MULTITHREADED_SYSTEMS), (label,),
        lambda _x: workload,
        _paper_config(kind),
        n_cores=MULTITHREADED_CORES,
    )


def _micro_100gb(rows_per_txn: int, read_write: bool) -> WorkloadSpec:
    return workload_spec(
        "micro", db_bytes=TPC_DB_BYTES, rows_per_txn=rows_per_txn, read_write=read_write
    )


MICRO_SIZE_RO, MICRO_SIZE_RW = _micro_size(False), _micro_size(True)
MICRO_ROWS_RO, MICRO_ROWS_RW = _micro_rows(False), _micro_rows(True)
TPCB, TPCC = _tpc("tpcb", "TPC-B"), _tpc("tpcc", "TPC-C")
INDEX_MICRO_RO = _index_compilation(_micro_100gb(10, read_write=False))
INDEX_MICRO_RW = _index_compilation(_micro_100gb(10, read_write=True))
INDEX_TPCC = _index_compilation(workload_spec("tpcc", db_bytes=TPC_DB_BYTES))
DATA_TYPES_RO, DATA_TYPES_RW = _data_types(False), _data_types(True)
MULTITHREADED_MICRO = _multithreaded(
    _micro_100gb(1, read_write=False), "micro", "micro (RO, 1 row)"
)
MULTITHREADED_TPCC = _multithreaded(
    workload_spec("tpcc", db_bytes=TPC_DB_BYTES), "tpcc", "TPC-C"
)


@dataclass(frozen=True)
class View:
    """One figure: an experiment read through one metric."""

    experiment: Experiment
    metric: str
    validator: Callable[[FigureResult], list[validate.Check]]
    title: str
    systems: tuple[str, ...] = ()
    x_values: tuple[str, ...] = ()


def table1(quick: bool = False) -> str:
    """Table 1: the simulated server every other figure runs on."""
    return render_table1(IVY_BRIDGE)


# Figure 28 is a repro extension, not from the source paper: the
# Hardware-Islands companion view of the OLTP-on-islands discussion.
# TPC-C is partitioned by warehouse across shard primaries and the
# multisite fraction of NewOrder/Payment is swept 0-100%.  Each cell
# reports the deterministic 2PC cost in fabric ticks — prepare-phase
# latency, client-visible commit latency, and the local/cross mix — so
# the figure shows what the distributed-transaction tax buys relative
# to a perfectly partitionable (0% remote) workload.  Its metric is
# fabric ticks, not stall cycles, so it renders to a string.
REMOTE_PCTS = (0.0, 10.0, 25.0, 50.0, 100.0)


def _mean(values: list[int]) -> float:
    return sum(values) / len(values) if values else 0.0


def sharded_cell(
    remote_pct: float,
    *,
    n_shards: int = 3,
    n_txns: int = 200,
    seed: int = 1,
) -> dict[str, float]:
    """Drive one fault-free sharded cluster at *remote_pct*."""
    cluster = ShardedCluster(
        ShardSpec(n_shards=n_shards, remote_pct=remote_pct, seed=seed)
    )
    rng = root_rng(seed + 1, "workload")
    committed = 0
    for _ in range(n_txns):
        if cluster.submit_next(rng) == COMMITTED:
            committed += 1
    cluster.resolve_all()
    c = cluster.counters
    return {
        "remote_pct": remote_pct,
        "committed": committed,
        "local": c["local"],
        "cross": c["cross"],
        "global_commits": c["committed_global"],
        "global_aborts": c["aborted_global"],
        "prepare_ticks": _mean(cluster.prepare_ticks),
        "commit_ticks": _mean(cluster.commit_ticks),
    }


def fig28(quick: bool = False) -> str:
    n_txns = 60 if quick else 200
    lines = [
        "Figure 28: local vs multisite transactions "
        f"(TPC-C by warehouse, 3 shards, {n_txns} txns/cell)",
        "",
        f"{'remote%':>8} {'local':>6} {'cross':>6} {'committed':>10} "
        f"{'2pc-commits':>12} {'prepare-ticks':>14} {'commit-ticks':>13}",
    ]
    for remote_pct in REMOTE_PCTS:
        cell = sharded_cell(remote_pct, n_txns=n_txns)
        lines.append(
            f"{cell['remote_pct']:>7.0f}% {cell['local']:>6.0f} "
            f"{cell['cross']:>6.0f} {cell['committed']:>10.0f} "
            f"{cell['global_commits']:>12.0f} {cell['prepare_ticks']:>14.2f} "
            f"{cell['commit_ticks']:>13.2f}"
        )
    lines.append("")
    lines.append(
        "Local transactions commit without fabric round-trips; every "
        "multisite transaction pays the two-phase prepare+decision "
        "latency, so commit ticks step up with the remote fraction."
    )
    return "\n".join(lines)


# One row per figure: experiment, metric, acceptance criteria, title,
# then an optional system or x-value subset.
FIGURES: dict[str, View | Callable[[bool], str]] = {
    "table1": table1,
    "fig1": View(MICRO_SIZE_RO, IPC, validate.ipc_size,
                 "Effect of database size on the IPC value (read-only)"),
    "fig2": View(MICRO_SIZE_RO, STALLS_PER_KI, validate.stalls_size,
                 "Stall cycles per 1000 instructions vs database size (read-only)"),
    "fig3": View(MICRO_SIZE_RO, STALLS_PER_TXN, validate.stalls_txn_100gb,
                 "Stall cycles per transaction, 100GB database (read-only)",
                 x_values=("100GB",)),
    "fig4": View(MICRO_ROWS_RO, IPC, validate.ipc_rows,
                 "Effect of work per transaction on the IPC value (read-only, 100GB)"),
    "fig5": View(MICRO_ROWS_RO, STALLS_PER_KI, validate.stalls_rows,
                 "Stall cycles per 1000 instructions vs rows per transaction (read-only, 100GB)"),
    "fig6": View(MICRO_ROWS_RO, STALLS_PER_TXN, validate.stalls_txn_rows,
                 "Stall cycles per transaction vs rows per transaction (read-only, 100GB)"),
    # The percentage comes from the profiler's per-code-module cycle
    # attribution, grouping modules into engine vs everything outside
    # it (like the paper's VTune module breakdown).
    "fig7": View(MICRO_ROWS_RO, PERCENT_ENGINE, validate.engine_share,
                 "% of time inside the OLTP engine vs rows per transaction",
                 systems=("dbms-d", "voltdb", "dbms-m")),
    "fig8": View(TPCB, IPC, validate.tpc_ipc, "The IPC values while running TPC-B"),
    "fig9": View(TPCB, STALLS_PER_KI, validate.tpc_stalls,
                 "Stall cycles per 1000 instructions while running TPC-B"),
    "fig10": View(TPCC, IPC, validate.tpc_ipc, "The IPC values while running TPC-C"),
    "fig11": View(TPCC, STALLS_PER_KI, validate.tpc_stalls,
                  "Stall cycles per 1000 instructions while running TPC-C"),
    "fig12": View(TPCC, STALLS_PER_TXN, validate.tpcc_stalls_txn,
                  "Stall cycles per transaction while running TPC-C"),
    "fig13": View(INDEX_MICRO_RO, STALLS_PER_KI, validate.index_compilation,
                  "Stalls/kI for index structures with/without compilation (micro, read-only)"),
    "fig14": View(INDEX_TPCC, STALLS_PER_KI, validate.index_compilation,
                  "Stalls/kI for index structures with/without compilation (TPC-C)"),
    "fig15": View(DATA_TYPES_RO, STALLS_PER_KI, validate.data_types,
                  "Stalls/kI for String and Long data types (micro, read-only)"),
    "fig16": View(MULTITHREADED_MICRO, IPC, validate.multithreaded_ipc,
                  "IPC, multi-threaded micro-benchmark (read-only, 1 row, 100GB)"),
    "fig17": View(MULTITHREADED_TPCC, IPC, validate.multithreaded_ipc,
                  "IPC, multi-threaded TPC-C"),
    "fig18": View(MULTITHREADED_MICRO, STALLS_PER_KI, validate.multithreaded_stalls,
                  "Stall cycles per 1000 instructions, multi-threaded micro-benchmark"),
    "fig19": View(MULTITHREADED_TPCC, STALLS_PER_KI, validate.multithreaded_stalls,
                  "Stall cycles per 1000 instructions, multi-threaded TPC-C"),
    "fig20": View(MICRO_SIZE_RW, IPC, validate.ipc_size,
                  "Effect of database size on the IPC value (read-write, appendix)"),
    "fig21": View(MICRO_SIZE_RW, STALLS_PER_KI, validate.stalls_size,
                  "Stall cycles per 1000 instructions vs database size (read-write, appendix)"),
    "fig22": View(MICRO_SIZE_RW, STALLS_PER_TXN, validate.stalls_txn_100gb,
                  "Stall cycles per transaction, 100GB database (read-write, appendix)",
                  x_values=("100GB",)),
    "fig23": View(MICRO_ROWS_RW, IPC, validate.ipc_rows,
                  "Effect of work per transaction on the IPC value (read-write, appendix)"),
    "fig24": View(
        MICRO_ROWS_RW, STALLS_PER_KI, validate.stalls_rows,
        "Stall cycles per 1000 instructions vs rows per transaction (read-write, appendix)",
    ),
    "fig25": View(MICRO_ROWS_RW, STALLS_PER_TXN, validate.stalls_txn_rows,
                  "Stall cycles per transaction vs rows per transaction (read-write, appendix)"),
    "fig26": View(INDEX_MICRO_RW, STALLS_PER_KI, validate.index_compilation,
                  "Stalls/kI for index structures with/without compilation (micro, read-write)"),
    "fig27": View(DATA_TYPES_RW, STALLS_PER_KI, validate.data_types,
                  "Stalls/kI for String and Long data types (micro, read-write)"),
    "fig28": fig28,
}

ALL_IDS = list(FIGURES)


def figure_key(figure_id: str) -> str:
    """The table key for *figure_id* (``fig1``, ``fig01``, ``Figure 1``)."""
    key = figure_id.lower().replace("figure", "fig").replace(" ", "")
    if key.startswith("fig") and key[3:].isdigit():
        key = f"fig{int(key[3:])}"
    if key not in FIGURES:
        raise KeyError(f"unknown figure {figure_id!r}; known: {', '.join(ALL_IDS)}")
    return key


def run_figures(
    figure_ids: list[str], quick: bool = False, jobs: int | None = None
) -> list[list[FigureResult] | str]:
    """Run several figures; one output per id, in order.

    An output is a list of FigureResult, or a string for a text figure.
    Every distinct cell of the requested figures runs once, so figures
    that view the same experiment share its results.  *jobs* > 1 fans
    the cells and their repetitions out over a process pool (see
    :mod:`repro.util.fanout`); output is bit-identical to the serial
    default.  An unknown id raises KeyError before anything runs.
    """
    keys = [figure_key(figure_id) for figure_id in figure_ids]
    views = {key: FIGURES[key] for key in keys if isinstance(FIGURES[key], View)}
    grids = {
        key: grid(view.experiment, quick=quick, systems=view.systems, x_values=view.x_values)
        for key, view in views.items()
    }
    cells = list(dict.fromkeys(cell for keyed in grids.values() for _, _, cell in keyed))
    with using_jobs(jobs):
        results = dict(zip(cells, run_cells(cells)))
        return [
            [_panel(key, views[key], grids[key], results)]
            if key in views
            else FIGURES[key](quick)
            for key in keys
        ]


def _panel(key: str, view: View, keyed_cells: list, results: dict) -> FigureResult:
    panel = FigureResult(
        figure_id=f"Figure {key[3:]}",
        title=view.title,
        metric=view.metric,
        x_label=view.experiment.x_label,
        x_values=list(view.x_values or view.experiment.x_values),
        systems=labels(list(view.systems or view.experiment.systems)),
    )
    for system_label, x, cell in keyed_cells:
        panel.add(system_label, x, results[cell])
    return panel


def run_figure(figure_id: str, quick: bool = False, jobs: int | None = None):
    """Run one figure: :func:`run_figures` for a single id."""
    return run_figures([figure_id], quick=quick, jobs=jobs)[0]
