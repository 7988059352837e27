"""Experiment runner: the paper's measurement methodology, simulated.

The paper's procedure (Section 3, "Measurements"): populate from
scratch, run a 60-second warm-up, profile a 30-second steady-state
window filtered to the worker thread(s), repeat three times and average.
The simulator's equivalent:

* build a fresh engine + workload per repetition (populate);
* **prewarm** the shared LLC with the workload's hot data regions
  (steady state on real hardware has the hot set resident; replaying
  enough transactions to fill a 20 MB LLC from cold would dominate
  simulation time, so residency is installed directly — hottest
  regions last, i.e. most-recently-used);
* run warm-up transactions until the private caches and branch state
  reach steady state (an *event* budget, so code-heavy engines get the
  same cache pressure as lean ones);
* open a profiler window and run measured transactions for the
  measurement budget;
* repeat with fresh seeds and average counters.

Multi-threaded runs (Section 7) place one worker per simulated core,
interleave whole transactions round-robin, home partitioned engines'
transactions to the worker's partition (single-sited, as the paper
configures VoltDB), and report per-worker average counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import obs
from repro.util import sanitizer
from repro.util.rng import root_rng
from repro.core.counters import PerfCounters
from repro.core.cpu import DEFAULT_OVERLAP, OverlapModel
from repro.core.machine import Machine
from repro.core.metrics import (
    StallBreakdown,
    ipc as ipc_of,
    stalls_per_kilo_instruction,
    stalls_per_transaction,
)
from repro.core.profiler import Profiler
from repro.core.spec import IVY_BRIDGE, ServerSpec
from repro.engines.base import COMMITTED
from repro.engines.config import EngineConfig
from repro.engines.registry import boot_engine
from repro.workloads.base import Workload

DEFAULT_MEASURE_EVENTS = 220_000
DEFAULT_WARMUP_EVENTS = 90_000
QUICK_MEASURE_EVENTS = 70_000
QUICK_WARMUP_EVENTS = 30_000
MIN_MEASURED_TXNS = 24
MIN_WARMUP_TXNS = 8


@dataclass(frozen=True)
class RunSpec:
    """One experiment cell: a system running a workload configuration."""

    system: str
    engine_config: EngineConfig = field(default_factory=EngineConfig)
    n_cores: int = 1
    measure_events: int = DEFAULT_MEASURE_EVENTS
    warmup_events: int = DEFAULT_WARMUP_EVENTS
    repetitions: int = 3
    seed: int = 42
    server: ServerSpec = IVY_BRIDGE
    overlap: OverlapModel = DEFAULT_OVERLAP
    # dTLB/page-walk surcharge per serial LLC miss; None = model default.
    serial_miss_extra_cycles: int | None = None
    # "constant" charges the calibrated surcharge; "measured" charges
    # simulated dTLB page walks instead (see repro.core.tlb).
    tlb_mode: str = "constant"
    tlb_spec: object | None = None

    def quick(self) -> "RunSpec":
        """Reduced-budget variant for tests and --quick runs.

        ``dataclasses.replace`` carries every other field over, so
        fields added to RunSpec later are preserved automatically.
        """
        return replace(
            self,
            measure_events=QUICK_MEASURE_EVENTS,
            warmup_events=QUICK_WARMUP_EVENTS,
            repetitions=1,
        )

    def machine(self) -> Machine:
        """The simulated server this cell is priced on."""
        return Machine(
            self.server,
            n_cores=self.n_cores,
            overlap=self.overlap,
            serial_miss_extra_cycles=self.serial_miss_extra_cycles,
            tlb_mode=self.tlb_mode,
            tlb_spec=self.tlb_spec,
        )

    def rep_seed(self, rep: int) -> int:
        """Deterministic seed for repetition *rep* (0-based).

        This derivation is the parallel runner's determinism contract:
        serial and fanned-out executions run the same repetition with
        the same seed, so their results are bit-identical.
        """
        return self.seed + 1000 * rep


@dataclass
class RunResult:
    """Averaged measurement-window results for one cell.

    ``counters`` follow the paper's reporting convention (per-worker
    average for multi-threaded runs); ``measured_txns`` is always the
    *true total* number of committed transactions inside the
    measurement window(s), summed over all workers and repetitions —
    never the per-worker mean.
    """

    system: str
    counters: PerfCounters
    module_cycles: dict[str, float]
    module_groups: dict[str, str]
    server: ServerSpec
    measured_txns: int
    # Observability payloads (empty unless tracing was enabled for the
    # run): one span-event list per repetition, in seed order, and the
    # merged metrics snapshot.  Deliberately excluded from result
    # fingerprints — measurements are bit-identical with or without.
    obs_buffers: list = field(default_factory=list)
    obs_metrics: dict = field(default_factory=dict)
    # RNG provenance (empty unless --sanitize): per-stream draw counts
    # ("purpose@seed" -> draws), shipped back from worker processes so
    # serial and --jobs N runs can be diffed stream by stream.  Like
    # the obs payloads, excluded from result fingerprints.
    rng_draws: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return ipc_of(self.counters)

    @property
    def stalls_per_kilo_instruction(self) -> StallBreakdown:
        return stalls_per_kilo_instruction(self.counters, self.server)

    @property
    def stalls_per_transaction(self) -> StallBreakdown:
        return stalls_per_transaction(self.counters, self.server)

    @property
    def instructions_per_txn(self) -> float:
        c = self.counters
        return c.instructions / c.transactions if c.transactions else 0.0

    def engine_time_fraction(self) -> float:
        """Fraction of attributed cycles inside the OLTP engine (Fig 7)."""
        engine = sum(
            cyc for name, cyc in self.module_cycles.items()
            if self.module_groups.get(name) == "engine"
        )
        total = sum(self.module_cycles.values())
        return engine / total if total else 0.0


def prewarm_picks(engine, budget: int) -> list[tuple[int, int, int]]:
    """The ``(base, count, step)`` line picks of a prewarm, hottest first.

    Regions come hottest-first from the engine and are taken whole
    until *budget* lines are spent; regions wider than the remaining
    budget are stride-sampled, approximating the random residency
    steady state leaves behind.
    """
    picks: list[tuple[int, int, int]] = []
    for base, n_lines in engine.hot_regions():
        if budget <= 0:
            break
        take = min(n_lines, budget)
        step = max(1, n_lines // take)
        picks.append((base, take, step))
        budget -= take
    return picks


def prewarm_llc(machine: Machine, engine) -> None:
    """Install the workload's hot data set into the shared LLC.

    The picks are filled coldest-first so the hottest lines end
    most-recently-used.
    """
    llc = machine.hierarchy.llc
    with obs.span("prewarm", track="harness", cat="harness"):
        llc.fill_regions(prewarm_picks(engine, llc.spec.n_lines)[::-1])


def run_repetition(spec: RunSpec, workload_factory, seed: int) -> RunResult:
    """One repetition of one cell: populate, warm up, measure.

    Module-level (not a method) so the parallel executor can ship the
    call to a worker process; the serial path runs the very same
    function, which is what makes ``--jobs N`` bit-identical to serial.
    """
    workload: Workload = workload_factory()
    config = spec.engine_config
    if spec.n_cores > 1 and config.n_partitions == 1:
        # Partitioned engines get one partition per worker (paper
        # Section 3: VoltDB generates one worker per partition).
        config = replace(config, n_partitions=spec.n_cores)
    obs_mark = obs.mark()
    with obs.span("setup", track="harness", cat="harness", system=spec.system):
        engine = boot_engine(spec.system, config, workload)
        machine = spec.machine()
    prewarm_llc(machine, engine)

    rng = root_rng(seed, "workload")
    partitioned = engine.is_partitioned and spec.n_cores > 1

    def run_phase(
        event_budget: int, min_txns: int, *, phase: str = "measure",
        strict: bool = True,
    ) -> int:
        """Run until the event budget AND the commit floor are both met.

        The commit floor keeps the attempt loop honest, but a workload
        that cannot commit (every attempt aborts — a hostile fault
        schedule, or a quick-spec budget too small to reach
        ``min_txns``) must not spin forever: after ``attempt_cap``
        attempts a *strict* phase raises with the phase name, while a
        best-effort phase (warmup) stops with whatever it warmed —
        warmup exists to heat caches, and aborted attempts heat them
        too.  The measure phase stays strict so a window with zero
        committed transactions is an error, never a silent zero-row
        report.
        """
        events = 0
        txns = 0
        attempts = 0
        core = 0
        attempt_cap = max(min_txns, 1) * 1000
        while events < event_budget or txns < min_txns:
            partition = core if partitioned else None
            procedure, body = workload.next_transaction(
                rng, partition=partition, n_partitions=spec.n_cores
            )
            trace = engine.execute(procedure, body, core_id=core)
            # Only commits count as transactions; aborted attempts'
            # events still replay (the hardware saw that work) but
            # must not dilute per-transaction metrics.
            committed = engine.last_outcome == COMMITTED
            machine.run_trace(
                trace, core_id=core, transactions=1 if committed else 0
            )
            events += len(trace)
            attempts += 1
            if committed:
                txns += 1
            core = (core + 1) % spec.n_cores
            if attempts >= attempt_cap and txns < min_txns:
                if strict:
                    raise RuntimeError(
                        f"{spec.system} {phase}: {attempts} attempts produced "
                        f"only {txns}/{min_txns} commits — workload cannot "
                        f"make progress"
                    )
                break
        return txns

    with obs.span(
        "repetition", track="harness", cat="harness", system=spec.system, seed=seed
    ) as rep_span:
        with obs.span("warmup", track="harness", cat="harness"):
            run_phase(
                spec.warmup_events, MIN_WARMUP_TXNS, phase="warmup", strict=False
            )
        profiler = Profiler(machine)
        profiler.start_window()
        with obs.span("measure", track="harness", cat="harness"):
            measured_txns = run_phase(spec.measure_events, MIN_MEASURED_TXNS)
        window = profiler.end_window()
        rep_span.set(measured_txns=measured_txns)

    # Per-worker average, as the paper reports multi-threaded runs —
    # but measured_txns stays the true total committed count across all
    # workers (scaling it down with the mean would report a per-worker
    # float that summation over repetitions silently mixes up).
    counters = window.mean_core_counters() if spec.n_cores > 1 else window.counters()
    layout = engine.layout
    named_cycles = {
        layout.name_of(mod): cycles for mod, cycles in window.module_cycles.items()
    }
    groups = {layout.name_of(m): layout.group_of(m) for m in layout.ids()}
    return RunResult(
        system=spec.system,
        counters=counters,
        module_cycles=named_cycles,
        module_groups=groups,
        server=spec.server,
        measured_txns=measured_txns,
        # Each repetition ships its own event buffer (one process, one
        # clock) so merged traces keep per-buffer timestamp monotonicity.
        obs_buffers=[obs.drain_events(obs_mark)] if obs.enabled() else [],
        obs_metrics=obs.drain_metrics(),
        rng_draws=sanitizer.drain_draws() if sanitizer.enabled() else {},
    )


def aggregate_repetitions(spec: RunSpec, rep_results: list[RunResult]) -> RunResult:
    """Fold per-repetition results into one cell result.

    Pure and order-dependent only on the list order; both execution
    paths pass repetitions in seed order, so serial and parallel
    aggregation are bit-identical.
    """
    total = PerfCounters()
    module_cycles: dict[str, float] = {}
    module_groups: dict[str, str] = {}
    measured_txns = 0
    obs_buffers: list = []
    metric_snaps: list[dict] = []
    rng_draws: dict = {}
    for rep_result in rep_results:
        total.add(rep_result.counters)
        measured_txns += rep_result.measured_txns
        for name, cycles in rep_result.module_cycles.items():
            module_cycles[name] = module_cycles.get(name, 0.0) + cycles
        module_groups.update(rep_result.module_groups)
        obs_buffers.extend(rep_result.obs_buffers)
        if rep_result.obs_metrics:
            metric_snaps.append(rep_result.obs_metrics)
        sanitizer.merge_draws(rng_draws, rep_result.rng_draws)
    return RunResult(
        system=spec.system,
        counters=total,
        module_cycles=module_cycles,
        module_groups=module_groups,
        server=spec.server,
        measured_txns=measured_txns,
        obs_buffers=obs_buffers,
        obs_metrics=obs.merge_snapshots(*metric_snaps) if metric_snaps else {},
        rng_draws=rng_draws,
    )


class ExperimentRunner:
    """Runs one cell: engine x workload x budgets x repetitions."""

    def __init__(self, spec: RunSpec, workload_factory) -> None:
        self.spec = spec
        self.workload_factory = workload_factory

    def run(self, jobs: int | None = None) -> RunResult:
        """Run every repetition and aggregate.

        *jobs* > 1 fans repetitions out across worker processes when
        the workload factory is a picklable descriptor (see
        :mod:`repro.bench.parallel`); results are bit-identical to the
        serial path.  ``None`` means the ambient jobs setting.
        """
        from repro.bench.parallel import CellTask, run_cells

        return run_cells([CellTask(self.spec, self.workload_factory)], jobs)[0]
