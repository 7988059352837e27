"""Experiment cells and repetitions as picklable fan-out tasks.

The paper's methodology is embarrassingly parallel: every figure is a
grid of independent cells (system x workload x configuration), each
repeated with fresh seeds.  :func:`run_cells` flattens that grid into
*(cell, repetition)* tasks and hands them to
:func:`repro.util.fanout.ordered_map`, keeping the results
**bit-identical** to the serial path:

* each task runs the same :func:`repro.bench.runner.run_repetition`
  function the serial path calls;
* each repetition's seed comes from :meth:`RunSpec.rep_seed`, so the
  seed a repetition sees does not depend on which worker runs it;
* results come back in submission order and are folded with
  :func:`repro.bench.runner.aggregate_repetitions`, so floating-point
  summation order matches the serial path exactly.

Workloads cross process boundaries as :class:`WorkloadSpec` descriptors
— a picklable ``(kind, params)`` pair that builds the workload inside
the worker — because closures cannot be pickled.  A ``WorkloadSpec`` is itself callable, so it drops
into every API that expects a zero-argument workload factory.  Cells
whose factory cannot be pickled run serially, never with an error.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Sequence

from repro import obs
from repro.bench.runner import (
    RunResult,
    RunSpec,
    aggregate_repetitions,
    run_repetition,
)
from repro.util.fanout import ordered_map
from repro.workloads.microbench import MicroBenchmark
from repro.workloads.tpcb import TPCB
from repro.workloads.tpcc import TPCC
from repro.workloads.tpce_lite import TPCELite

WORKLOAD_KINDS = {
    "micro": MicroBenchmark,
    "tpcb": TPCB,
    "tpcc": TPCC,
    "tpce": TPCELite,
}


@dataclass(frozen=True)
class WorkloadSpec:
    """Picklable workload descriptor: registry kind + constructor params."""

    kind: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; known: {', '.join(WORKLOAD_KINDS)}"
            )

    def make(self):
        """Instantiate the workload (inside whichever process runs it)."""
        return WORKLOAD_KINDS[self.kind](**dict(self.params))

    def __call__(self):
        return self.make()


def workload_spec(kind: str, **params) -> WorkloadSpec:
    """Convenience constructor: ``workload_spec("micro", db_bytes=...)``."""
    return WorkloadSpec(kind, tuple(sorted(params.items())))


@dataclass(frozen=True)
class CellTask:
    """One experiment cell queued for execution."""

    spec: RunSpec
    workload: Any  # WorkloadSpec or any zero-argument factory


# -- execution ---------------------------------------------------------------


def _run_rep(task: tuple[RunSpec, Any, int, bool]) -> RunResult:
    """Worker entry point: one repetition of one cell.

    The trailing flag carries the parent's observability state into
    worker processes (module globals do not cross the fork/spawn);
    events stay in the repetition's ``RunResult.obs_buffers`` either
    way, so results are bit-identical with tracing on or off.
    """
    spec, workload_factory, seed, obs_on = task
    if obs_on and not obs.enabled():
        with obs.using_obs(True):
            return run_repetition(spec, workload_factory, seed)
    return run_repetition(spec, workload_factory, seed)


def _picklable(obj: Any) -> bool:
    if isinstance(obj, WorkloadSpec):
        return True
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


def run_cells(cells: Sequence[CellTask], jobs: int | None = None) -> list[RunResult]:
    """Run every cell (all repetitions) and return results in cell order.

    With *jobs* > 1 the flattened *(cell, repetition)* tasks are fanned
    out over a process pool; otherwise (or when any task is not
    picklable) everything runs serially in this process.  Both paths
    produce bit-identical :class:`RunResult` values.
    """
    obs_on = obs.enabled()
    tasks: list[tuple[RunSpec, Any, int, bool]] = []
    rep_slices: list[tuple[int, int]] = []
    for cell in cells:
        start = len(tasks)
        for rep in range(cell.spec.repetitions):
            tasks.append((cell.spec, cell.workload, cell.spec.rep_seed(rep), obs_on))
        rep_slices.append((start, len(tasks)))

    if not all(_picklable(cell.workload) for cell in cells):
        jobs = 1
    rep_results = ordered_map(_run_rep, tasks, jobs)
    return [
        aggregate_repetitions(cell.spec, rep_results[start:stop])
        for cell, (start, stop) in zip(cells, rep_slices)
    ]
