"""Parallel-executor tests: descriptors, parity with serial, runner fixes."""

import dataclasses
import pickle

import pytest

from repro.bench.parallel import (
    CellTask,
    WorkloadSpec,
    run_cells,
    workload_spec,
)
from repro.bench.runner import (
    ExperimentRunner,
    MIN_MEASURED_TXNS,
    RunSpec,
    aggregate_repetitions,
    run_repetition,
)
from repro.engines.config import EngineConfig
from repro.util.fanout import default_jobs, get_jobs, using_jobs
from repro.workloads.microbench import MicroBenchmark
from repro.workloads.tpcb import TPCB

MICRO_1MB = workload_spec("micro", db_bytes=1 << 20)


def quick_spec(system="hyper", **kw) -> RunSpec:
    return RunSpec(system=system, **kw).quick()


class TestWorkloadSpec:
    def test_builds_the_described_workload(self):
        spec = workload_spec("micro", db_bytes=1 << 20, rows_per_txn=3, read_write=True)
        workload = spec.make()
        assert isinstance(workload, MicroBenchmark)
        assert workload.rows_per_txn == 3
        assert workload.read_write is True

    def test_is_a_zero_argument_factory(self):
        assert isinstance(MICRO_1MB(), MicroBenchmark)
        assert isinstance(workload_spec("tpcb")(), TPCB)

    def test_round_trips_through_pickle(self):
        spec = workload_spec("micro", db_bytes=1 << 20, rows_per_txn=2)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.make().rows_per_txn == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            workload_spec("nope")

    def test_param_order_does_not_matter(self):
        a = workload_spec("micro", db_bytes=1 << 20, rows_per_txn=2)
        b = workload_spec("micro", rows_per_txn=2, db_bytes=1 << 20)
        assert a == b


class TestJobsContext:
    def test_default_is_serial(self):
        assert get_jobs() == 1

    def test_context_installs_and_restores(self):
        with using_jobs(4) as n:
            assert n == 4
            assert get_jobs() == 4
            with using_jobs(2):
                assert get_jobs() == 2
            assert get_jobs() == 4
        assert get_jobs() == 1

    def test_none_and_zero_mean_serial(self):
        with using_jobs(None):
            assert get_jobs() == 1
        with using_jobs(0):
            assert get_jobs() == 1

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


def _result_fingerprint(result):
    return (
        result.system,
        result.counters.as_dict(),
        result.module_cycles,
        result.module_groups,
        result.measured_txns,
    )


class TestParallelParity:
    """--jobs N must be bit-identical to the serial path."""

    def test_two_cell_figure_parity(self):
        cells = [
            CellTask(quick_spec("hyper"), MICRO_1MB),
            CellTask(quick_spec("voltdb"), MICRO_1MB),
        ]
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=4)
        assert len(serial) == len(parallel) == 2
        for s, p in zip(serial, parallel):
            assert _result_fingerprint(s) == _result_fingerprint(p)

    def test_repetition_fanout_parity(self):
        spec = dataclasses.replace(quick_spec("hyper"), repetitions=2)
        serial = ExperimentRunner(spec, MICRO_1MB).run(jobs=1)
        parallel = ExperimentRunner(spec, MICRO_1MB).run(jobs=2)
        assert _result_fingerprint(serial) == _result_fingerprint(parallel)

    def test_unpicklable_factory_falls_back_to_serial(self):
        spec = quick_spec("hyper")
        closure = lambda: MicroBenchmark(db_bytes=1 << 20)  # noqa: E731
        result = run_cells([CellTask(spec, closure)], jobs=4)[0]
        reference = run_cells([CellTask(spec, MICRO_1MB)], jobs=1)[0]
        assert _result_fingerprint(result) == _result_fingerprint(reference)

    def test_map_repetitions_seed_order(self):
        spec = dataclasses.replace(quick_spec("hyper"), repetitions=2)
        result = ExperimentRunner(spec, MICRO_1MB).run(jobs=1)
        a = run_repetition(spec, MICRO_1MB, spec.rep_seed(0))
        b = run_repetition(spec, MICRO_1MB, spec.rep_seed(1))
        expected = aggregate_repetitions(spec, [a, b])
        assert _result_fingerprint(result) == _result_fingerprint(expected)


class TestMeasuredTxns:
    """Regression: multi-core runs must report the true committed total."""

    def test_two_core_total_not_per_worker_mean(self):
        spec = RunSpec(
            system="voltdb", n_cores=2, repetitions=1,
            measure_events=5000, warmup_events=1000,
        )
        result = ExperimentRunner(spec, MICRO_1MB).run()
        assert isinstance(result.measured_txns, int)
        assert result.measured_txns >= MIN_MEASURED_TXNS
        # counters hold the per-worker mean; the committed total must be
        # about n_cores times that, never equal to the scaled-down mean.
        mean = result.counters.transactions
        assert abs(result.measured_txns - 2 * mean) <= 1
        assert result.measured_txns > mean

    def test_repetitions_sum_totals(self):
        one = RunSpec(
            system="voltdb", n_cores=2, repetitions=1,
            measure_events=5000, warmup_events=1000,
        )
        two = dataclasses.replace(one, repetitions=2)
        r1 = ExperimentRunner(one, MICRO_1MB).run()
        r2 = ExperimentRunner(two, MICRO_1MB).run()
        assert r2.measured_txns > r1.measured_txns
        assert r2.measured_txns >= 2 * MIN_MEASURED_TXNS


class TestQuickPreservesFields:
    """Regression: quick() must carry over every non-budget field."""

    BUDGET_FIELDS = {"measure_events", "warmup_events", "repetitions"}

    def test_every_non_budget_field_preserved(self):
        from repro.core.cpu import OverlapModel
        from repro.core.spec import IVY_BRIDGE
        from repro.core.tlb import TLBSpec

        # Non-default value for every non-budget field; a field added to
        # RunSpec later is covered automatically by the fields() sweep.
        full = RunSpec(
            system="voltdb",
            engine_config=EngineConfig(n_partitions=3),
            n_cores=2,
            seed=777,
            server=IVY_BRIDGE,
            overlap=OverlapModel(l1d=0.5),
            serial_miss_extra_cycles=99,
            tlb_mode="measured",
            tlb_spec=TLBSpec(page_bytes=2 << 20),
        )
        quick = full.quick()
        for f in dataclasses.fields(RunSpec):
            if f.name in self.BUDGET_FIELDS:
                continue
            assert getattr(quick, f.name) == getattr(full, f.name), f.name

    def test_budget_fields_reduced(self):
        full = RunSpec(system="hyper")
        quick = full.quick()
        assert quick.measure_events < full.measure_events
        assert quick.warmup_events < full.warmup_events
        assert quick.repetitions == 1


class TestCLISubcommands:
    def test_figures_mixed_with_subcommand_rejected(self, capsys):
        from repro.bench.cli import main

        assert main(["fig1", "chaos"]) == 2
        err = capsys.readouterr().err
        assert "subcommand" in err
        assert "repro-bench chaos" in err

    def test_validate_mixed_with_figures_rejected(self, capsys):
        from repro.bench.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["validate", "fig1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_perf_quick_writes_record(self, tmp_path, capsys):
        from repro.bench.cli import main

        store_dir = tmp_path / "store"
        assert main(["perf", "--quick", "--store-dir", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "events/sec" in out
        assert "store      : bench-" in out
        assert len(list(store_dir.glob("bench-*/meta.json"))) == 1

    def test_jobs_flag_accepted_for_figures(self, capsys):
        from repro.bench.cli import main

        assert main(["table1", "--quick", "--jobs", "2"]) == 0
        assert "Table 1" in capsys.readouterr().out
