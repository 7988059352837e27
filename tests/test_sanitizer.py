"""Runtime RNG-stream sanitizer tests: parity, provenance, divergence."""

import os
import random

import pytest

from repro.bench.runner import ExperimentRunner, RunSpec
from repro.bench.parallel import workload_spec
from repro.faults.chaos import ChaosRunner, ChaosSpec
from repro.util import sanitizer
from repro.util.rng import child_rng, root_rng
from repro.workloads.microbench import MicroBenchmark

MICRO_1MB = workload_spec("micro", db_bytes=1 << 20)


def micro():
    return MicroBenchmark(db_bytes=1 << 20, rows_per_txn=4, read_write=True)


@pytest.fixture(autouse=True)
def clean_sanitizer():
    """Every test starts and ends disarmed with empty state."""
    sanitizer.reset()
    sanitizer.disarm()
    yield
    sanitizer.reset()
    sanitizer.disarm()


class TestTrackedRandomParity:
    """Armed factories must draw bit-identically to plain Random."""

    def test_tracked_equals_plain_across_methods(self):
        plain = random.Random("7:workload")
        tracked = sanitizer.TrackedRandom("7:workload", "workload")
        items = list(range(20))
        mirror = list(range(20))
        tracked.shuffle(items)
        plain.shuffle(mirror)
        assert items == mirror
        for _ in range(50):
            assert tracked.random() == plain.random()
            assert tracked.randint(0, 1 << 30) == plain.randint(0, 1 << 30)
            assert tracked.gauss(0, 1) == plain.gauss(0, 1)
            assert tracked.getrandbits(64) == plain.getrandbits(64)

    def test_factories_hand_out_tracked_only_when_armed(self):
        assert type(child_rng(3, "x")) is random.Random
        sanitizer.arm()
        assert isinstance(child_rng(3, "x"), sanitizer.TrackedRandom)
        assert isinstance(root_rng(3), sanitizer.TrackedRandom)

    def test_factory_seed_derivations_are_pinned(self):
        # The sanitized stream must continue the exact sequences the
        # codebase pinned before the factories existed.
        sanitizer.arm()
        assert child_rng(5, "p").random() == random.Random("5:p").random()
        assert root_rng(5).random() == random.Random(5).random()

    def test_seeding_draws_are_not_counted(self):
        sanitizer.arm()
        child_rng(1, "quiet")
        assert sanitizer.snapshot_draws() == {}


class TestScopes:
    def test_cross_stream_draw_detected(self):
        sanitizer.arm()
        right = child_rng(1, "fault-schedule")
        wrong = child_rng(1, "workload")
        with sanitizer.scope("fault-schedule"):
            right.random()
            assert sanitizer.ok()
            wrong.random()  # the deliberate injection
        assert not sanitizer.ok()
        assert any("cross-stream" in v for v in sanitizer.violations())

    def test_scope_allows_any_listed_purpose(self):
        sanitizer.arm()
        with sanitizer.scope("a", "b"):
            child_rng(1, "a").random()
            child_rng(1, "b").random()
        assert sanitizer.ok()

    def test_disarmed_scope_is_free_and_silent(self):
        with sanitizer.scope("a"):
            child_rng(1, "b").random()
        assert sanitizer.ok()
        assert sanitizer.scope("a") is sanitizer.scope("b")

    def test_duplicate_violations_deduplicated(self):
        sanitizer.arm()
        wrong = child_rng(1, "workload")
        with sanitizer.scope("image"):
            wrong.random()
            wrong.random()
        assert len(sanitizer.violations()) == 1


class TestInjectedCrossStreamRegression:
    """A planted wrong-stream draw in sim code must be caught."""

    def test_schedule_scope_flags_foreign_stream(self):
        from repro.faults.injector import FaultInjector, FaultSpec, TXN_BODY

        with sanitizer.sanitizing():
            injector = FaultInjector(
                [FaultSpec(TXN_BODY, kind="abort", probability=0.5, times=-1)],
                seed=3,
            )
            # Buggy hypothetical code: consuming the workload stream
            # inside the injector's own per-kind draw region.
            workload_stream = child_rng(3, "workload")
            for _ in range(4):
                with sanitizer.scope("abort"):
                    injector.stream("abort").random()
                    workload_stream.random()
        assert not sanitizer.ok()
        assert any("'workload@3:workload'" in v for v in sanitizer.violations())

    def test_real_injector_draws_stay_clean(self):
        from repro.engines.base import TransactionAborted
        from repro.faults.injector import FaultInjector, FaultSpec, TXN_BODY

        with sanitizer.sanitizing():
            injector = FaultInjector(
                [FaultSpec(TXN_BODY, kind="abort", probability=0.5, times=-1)],
                seed=3,
            )
            for _ in range(20):
                try:
                    injector.fire(TXN_BODY)
                except TransactionAborted:
                    pass
        assert sanitizer.ok(), sanitizer.violations()


class TestDrawCounts:
    def test_merge_and_compare(self):
        a = {"workload@42": 10, "image@1:image": 2}
        b = {"workload@42": 3}
        merged = sanitizer.merge_draws(dict(a), b)
        assert merged["workload@42"] == 13
        problems = sanitizer.compare_draws(a, merged)
        assert problems == ["draw-count divergence on 'workload@42': 10 != 13"]
        assert sanitizer.compare_draws(a, dict(a)) == []

    def test_serial_and_parallel_runs_draw_identically(self):
        from dataclasses import replace

        spec = replace(RunSpec(system="hyper").quick(), repetitions=2)
        with sanitizer.sanitizing():
            serial = ExperimentRunner(spec, MICRO_1MB).run(jobs=1)
            sanitizer.reset()
            parallel = ExperimentRunner(spec, MICRO_1MB).run(jobs=2)
        assert serial.rng_draws
        assert sanitizer.compare_draws(serial.rng_draws, parallel.rng_draws) == []

    def test_unsanitized_results_carry_no_draws(self):
        spec = RunSpec(system="hyper").quick()
        result = ExperimentRunner(spec, MICRO_1MB).run(jobs=1)
        assert result.rng_draws == {}


class TestStableHash:
    """Placement hashing must not depend on PYTHONHASHSEED."""

    def test_known_values_are_pinned(self):
        from repro.util.stablehash import stable_hash

        # str/bytes go through CRC32 — stable across processes, unlike
        # builtin hash(); pin a few so the placement contract is frozen.
        assert stable_hash("warehouse") == 3971189756
        assert stable_hash(b"warehouse") == 3971189756
        assert stable_hash(("row", "district", 7)) == 16521360409315371933

    def test_ints_hash_to_themselves(self):
        from repro.util.stablehash import stable_hash

        for value in (0, 1, 7, 2**40, -3):
            assert stable_hash(value) == value
        assert stable_hash(True) == 1 and stable_hash(False) == 0

    def test_tuples_mix_recursively(self):
        from repro.util.stablehash import stable_hash

        assert stable_hash(("a", 1)) != stable_hash(("a", 2))
        assert stable_hash(("a", 1)) != stable_hash(("b", 1))
        assert stable_hash(("a", ("b", 1))) == stable_hash(("a", ("b", 1)))


class TestSanitizingContext:
    def test_arms_and_exports_env_then_restores(self):
        before = os.environ.get(sanitizer.ENV_VAR)
        with sanitizer.sanitizing():
            assert sanitizer.enabled()
            assert os.environ[sanitizer.ENV_VAR] == "1"
        assert not sanitizer.enabled()
        assert os.environ.get(sanitizer.ENV_VAR) == before

    def test_off_is_a_no_op(self):
        with sanitizer.sanitizing(False):
            assert not sanitizer.enabled()


class TestBitIdenticalRuns:
    """--sanitize must not change a single output bit."""

    def test_chaos_digest_parity_single_node(self):
        spec = ChaosSpec.quick("shore-mt", seed=9)
        plain = ChaosRunner(spec, micro()).run()
        with sanitizer.sanitizing():
            sanitized = ChaosRunner(spec, micro()).run()
        assert sanitizer.ok(), sanitizer.violations()
        assert sanitized.digest() == plain.digest()
        assert sanitized.attempted == plain.attempted

    def test_chaos_digest_parity_replicated_quorum(self):
        spec = ChaosSpec.quick("shore-mt", seed=9, replicas=2, ack="quorum")
        plain = ChaosRunner(spec, micro()).run()
        with sanitizer.sanitizing():
            sanitized = ChaosRunner(spec, micro()).run()
        assert sanitizer.ok(), sanitizer.violations()
        assert sanitized.digest() == plain.digest()
        assert sanitized.replica_digests == plain.replica_digests

    def test_figure_cell_parity(self):
        spec = RunSpec(system="hyper").quick()
        plain = ExperimentRunner(spec, MICRO_1MB).run(jobs=1)
        with sanitizer.sanitizing():
            sanitized = ExperimentRunner(spec, MICRO_1MB).run(jobs=1)
        assert sanitizer.ok(), sanitizer.violations()
        assert sanitized.counters == plain.counters
        assert sanitized.measured_txns == plain.measured_txns
        assert sanitized.module_cycles == plain.module_cycles


class TestCliSummary:
    """The CLI's ``[sanitize ...]`` line counts the draws a run drained
    onto its results (figure repetitions and load points drain theirs),
    so it reports real counts rather than ``0 draw(s)``."""

    def _summary(self, argv, label, capsys) -> str:
        from repro.bench.cli import main

        assert main([*argv, "--sanitize"]) == 0
        err = capsys.readouterr().err
        return next(
            line for line in err.splitlines() if line.startswith(f"[sanitize {label}:")
        )

    def test_figure_summary_counts_every_repetition(self, capsys):
        from repro.bench.figures import run_figure

        with sanitizer.sanitizing():
            panels = run_figure("fig1", quick=True)
        drained: dict[str, int] = {}
        for panel in panels:
            for result in panel.cells.values():
                sanitizer.merge_draws(drained, result.rng_draws)
        assert drained
        sanitizer.reset()
        line = self._summary(["fig1", "--quick"], "figures", capsys)
        assert f"{len(drained)} stream(s), {sum(drained.values())} draw(s), ok" in line

    def test_load_summary_counts_every_point(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        line = self._summary(
            ["load", "--clients", "200", "--events", "60", "--no-save"], "load", capsys
        )
        assert " 0 stream(s)" not in line and " 0 draw(s)" not in line, line
