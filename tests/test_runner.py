"""Experiment-runner tests."""

import pytest

from repro.bench.runner import (
    ExperimentRunner,
    MIN_MEASURED_TXNS,
    QUICK_MEASURE_EVENTS,
    RunSpec,
    prewarm_llc,
)
from repro.core.machine import Machine
from repro.engines.base import UserAbort
from repro.engines.registry import make_engine
from repro.engines.common import TableSpec
from repro.storage.layout_models import AnalyticART
from repro.storage.record import microbench_schema
from repro.workloads.base import Workload
from repro.workloads.microbench import MicroBenchmark


def micro_factory():
    return MicroBenchmark(db_bytes=1 << 20)


def tiny_spec(system="hyper", **kw) -> RunSpec:
    base = RunSpec(system=system, **kw).quick()
    return base


class TestRunSpec:
    def test_quick_reduces_budgets(self):
        full = RunSpec(system="hyper")
        quick = full.quick()
        assert quick.measure_events < full.measure_events
        assert quick.repetitions == 1
        assert quick.measure_events == QUICK_MEASURE_EVENTS

    def test_defaults_force_analytic_indexes(self):
        engine = make_engine("hyper", RunSpec(system="hyper").engine_config)
        engine.create_table(TableSpec("t", microbench_schema(), 10))
        assert isinstance(engine.table("t")._parts[0][1], AnalyticART)


class TestPrewarm:
    def test_prewarm_fills_llc(self):
        engine = make_engine("hyper")
        engine.create_table(TableSpec("t", microbench_schema(), 10**7))
        machine = Machine()
        prewarm_llc(machine, engine)
        llc = machine.hierarchy.llc
        assert llc.resident_lines() > llc.spec.n_lines * 0.5
        assert llc.stats.accesses == 0  # fills do not pollute counters

    def test_prewarm_prioritises_small_regions(self):
        engine = make_engine("hyper")
        engine.create_table(TableSpec("t", microbench_schema(), 10**9))
        machine = Machine()
        prewarm_llc(machine, engine)
        # The index root level (smallest region) must be resident.
        root_base, _ = engine.table("t").hot_regions()[0]
        assert machine.hierarchy.llc.contains(root_base)


class TestRun:
    def test_single_threaded_run_produces_counters(self):
        result = ExperimentRunner(tiny_spec(), micro_factory).run()
        assert result.counters.transactions >= 24
        assert result.counters.instructions > 0
        assert 0 < result.ipc < 4
        assert result.instructions_per_txn > 0

    def test_stall_metrics_available(self):
        result = ExperimentRunner(tiny_spec(system="shore-mt"), micro_factory).run()
        spk = result.stalls_per_kilo_instruction
        assert spk.l1i > 0
        assert result.stalls_per_transaction.total > spk.total

    def test_module_attribution_covers_engine_and_other(self):
        result = ExperimentRunner(tiny_spec(system="voltdb"), micro_factory).run()
        groups = set(result.module_groups[name] for name in result.module_cycles)
        assert "engine" in groups and "other" in groups
        assert 0 < result.engine_time_fraction() < 1

    def test_repetitions_accumulate(self):
        one = RunSpec(system="hyper").quick()
        spec3 = RunSpec(
            system="hyper",
            measure_events=one.measure_events,
            warmup_events=one.warmup_events,
            repetitions=2,
        )
        r1 = ExperimentRunner(one, micro_factory).run()
        r2 = ExperimentRunner(spec3, micro_factory).run()
        assert r2.counters.transactions > r1.counters.transactions

    def test_deterministic_given_seed(self):
        a = ExperimentRunner(tiny_spec(), micro_factory).run()
        b = ExperimentRunner(tiny_spec(), micro_factory).run()
        assert a.counters.as_dict() == b.counters.as_dict()

    def test_multithreaded_run(self):
        spec = RunSpec(system="voltdb", n_cores=2).quick()
        result = ExperimentRunner(spec, micro_factory).run()
        assert result.counters.transactions > 0
        assert 0 < result.ipc < 4

    def test_multithreaded_partitions_match_cores(self):
        # Partitioned engines get one partition per worker automatically.
        spec = RunSpec(system="voltdb", n_cores=2, repetitions=1,
                       measure_events=5000, warmup_events=1000)
        result = ExperimentRunner(spec, micro_factory).run()
        assert result.counters.transactions >= 12


class _ColdStart(Workload):
    """Aborts every attempt until attempt ``thaw``, then always commits.

    With ``thaw`` past the warmup attempt cap (MIN_WARMUP_TXNS * 1000 =
    8000), the warmup phase can never reach its commit floor — the
    exact quick-spec edge: before the best-effort fix this workload
    made the runner raise during warmup even though the measure window
    would have been perfectly healthy."""

    name = "coldstart"

    def __init__(self, thaw: int = 9000) -> None:
        self.thaw = thaw
        self.attempts = 0

    def table_specs(self):
        return [TableSpec("t", microbench_schema(), 1000)]

    def next_transaction(self, rng, *, partition=None, n_partitions=1):
        self.attempts += 1
        frozen = self.attempts <= self.thaw
        key = rng.randrange(1000)

        def body(txn):
            txn.update("t", key, "value", 1)
            if frozen:
                raise UserAbort("still cold")

        return "coldstart", body


class _NeverCommits(Workload):
    name = "never"

    def table_specs(self):
        return [TableSpec("t", microbench_schema(), 1000)]

    def next_transaction(self, rng, *, partition=None, n_partitions=1):
        def body(txn):
            raise UserAbort("always aborts")

        return "never", body


class TestWarmupTermination:
    """The quick-spec warmup edge: MIN_WARMUP_TXNS can exceed what the
    warmup event budget produces.  Warmup must terminate (best-effort)
    and the measure window must never be empty (strict)."""

    def test_warmup_cap_is_best_effort_and_window_fills(self):
        spec = RunSpec(
            system="hyper", measure_events=2000, warmup_events=200, repetitions=1
        )
        result = ExperimentRunner(spec, _ColdStart).run()
        # Warmup stopped at its attempt cap without raising; the strict
        # measure phase still reached its commit floor — the measure
        # window is never empty.
        assert result.measured_txns >= MIN_MEASURED_TXNS
        assert result.counters.transactions == result.measured_txns

    def test_hopeless_workload_fails_in_measure_not_warmup(self):
        spec = RunSpec(
            system="hyper", measure_events=10, warmup_events=10, repetitions=1
        )
        with pytest.raises(RuntimeError, match="measure") as excinfo:
            ExperimentRunner(spec, _NeverCommits).run()
        # The failure is attributed to the measure phase: warmup no
        # longer dies first on a workload that cannot commit.
        assert "warmup" not in str(excinfo.value)
        assert "cannot make progress" in str(excinfo.value)
