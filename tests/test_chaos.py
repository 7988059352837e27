"""Crash-recovery property tests (the `chaos` marker).

For every engine × workload: inject crashes at scheduled points, tear
the log, recover, and require zero verification mismatches and zero
TPC-C invariant violations — fully deterministically given the seed.

These run the same matrix as ``repro-bench chaos --quick`` and are
marked ``chaos`` so the tier-1 suite can include or skip them
explicitly (``pytest -m chaos``).
"""

import pytest

from repro.engines.base import Engine
from repro.engines.registry import ALL_SYSTEMS
from repro.faults import (
    ChaosRunner,
    ChaosSpec,
    INDEX_INSERT,
    INJECTION_POINTS,
    LOCK_ACQUIRE,
    TXN_BODY,
    invariant_names,
)
from repro.faults.chaos import default_workload_factories

pytestmark = pytest.mark.chaos


def _workload(name):
    return default_workload_factories()[name]()


def _failures(result):
    return result.final_problems + [p for c in result.crashes for p in c.problems]


class TestCrashRecoveryProperty:
    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    @pytest.mark.parametrize("workload", ["micro", "tpcc"])
    def test_recovery_clean_everywhere(self, system, workload):
        result = ChaosRunner(ChaosSpec.quick(system, seed=9), _workload(workload)).run()
        assert result.crashes, "no crash was injected"
        assert result.ok, _failures(result)
        assert result.stats.commits > 0

    @pytest.mark.parametrize("point", INJECTION_POINTS)
    def test_crash_at_every_point_shore_tpcc(self, point):
        """TPC-C on Shore-MT exercises all six points, one at a time."""
        spec = ChaosSpec(
            "shore-mt",
            n_txns=60,
            n_crashes=1,
            checkpoint_every=15,
            points=(point,),
            seed=23,
        )
        result = ChaosRunner(spec, _workload("tpcc")).run()
        assert [c.point for c in result.crashes] == [point]
        assert result.ok, _failures(result)

    def test_index_insert_point_skipped_without_inserts(self):
        """micro-rw never inserts; an index.insert schedule must simply
        never fire (and recovery still verifies at shutdown)."""
        spec = ChaosSpec(
            "hyper", n_txns=30, n_crashes=1, points=(INDEX_INSERT,), seed=3
        )
        result = ChaosRunner(spec, _workload("micro")).run()
        assert result.crashes == []
        assert result.ok, _failures(result)


class TestDeterminism:
    def _run(self, seed):
        return ChaosRunner(ChaosSpec.quick("shore-mt", seed=seed), _workload("tpcc")).run()

    def test_same_seed_same_recovered_states(self):
        a, b = self._run(17), self._run(17)
        assert a.digest() == b.digest()
        assert [(c.point, c.hit, c.txn_index) for c in a.crashes] == [
            (c.point, c.hit, c.txn_index) for c in b.crashes
        ]
        assert a.stats.commits == b.stats.commits

    def test_different_seed_diverges(self):
        assert self._run(17).digest() != self._run(18).digest()


class TestInjectedAborts:
    @pytest.mark.parametrize("system", ["shore-mt", "dbms-m"])
    def test_abort_storm_recovers_clean(self, system):
        spec = ChaosSpec(
            system,
            n_txns=120,
            n_crashes=2,
            abort_probability=0.15,
            checkpoint_every=25,
            seed=31,
        )
        result = ChaosRunner(spec, _workload("tpcc")).run()
        assert result.ok, _failures(result)
        assert result.stats.aborts_by_reason.get("injected-fault", 0) > 0
        assert result.stats.backoff_cycles > 0

    def test_single_node_restart_keeps_segment_injector(self, monkeypatch):
        # Every transaction, including those a restarted engine runs in
        # the rest of its segment, runs with that segment's injector
        # attached to the engine and to its log.
        seen = []
        execute = Engine.execute

        def spy(engine, procedure, body, core_id=0):
            seen.append((engine.injector, engine.recovery_log().injector))
            return execute(engine, procedure, body, core_id)

        monkeypatch.setattr(Engine, "execute", spy)
        spec = ChaosSpec("shore-mt", n_txns=60, n_crashes=2, seed=5)
        result = ChaosRunner(spec, _workload("micro")).run()
        assert result.ok, _failures(result)
        assert len(result.crashes) == 2
        assert all(c.winner_id is None for c in result.crashes)
        assert all(
            engine_inj is not None and log_inj is engine_inj
            for engine_inj, log_inj in seen
        )
        # One injector per segment: a restart does not arm a new one.
        assert len({id(engine_inj) for engine_inj, _ in seen}) == 3

    def test_lock_point_crash_with_contention(self):
        spec = ChaosSpec(
            "shore-mt",
            n_txns=80,
            n_crashes=2,
            points=(LOCK_ACQUIRE, TXN_BODY),
            seed=41,
        )
        result = ChaosRunner(spec, _workload("micro")).run()
        assert result.ok, _failures(result)
        assert {c.point for c in result.crashes} <= {LOCK_ACQUIRE, TXN_BODY}


class TestInvariantNaming:
    def test_invariant_names_extracts_prefixes(self):
        problems = [
            "no-acked-txn-lost: txn 3 acked at lsn 40",
            "replica-convergence: replica1 durable lsn 9 != primary tip 12",
            "no-acked-txn-lost: txn 9 acked at lsn 55",
            "unprefixed problem",
        ]
        assert invariant_names(problems) == [
            "no-acked-txn-lost", "replica-convergence",
        ]

    def test_failed_invariants_on_result(self):
        result = ChaosRunner(
            ChaosSpec.quick("shore-mt", seed=9), _workload("micro")
        ).run()
        assert result.ok
        assert result.failed_invariants() == []
        result.final_problems.append("replica-convergence: injected for test")
        assert not result.ok
        assert result.failed_invariants() == ["replica-convergence"]


class TestSpecValidation:
    def test_negative_replicas_rejected(self):
        with pytest.raises(ValueError, match="replicas"):
            ChaosSpec("shore-mt", replicas=-1)

    def test_unknown_ack_rejected(self):
        with pytest.raises(ValueError, match="ack mode"):
            ChaosSpec("shore-mt", ack="two-phase")

    def test_unknown_net_kind_rejected(self):
        with pytest.raises(ValueError, match="network fault kind"):
            ChaosSpec("shore-mt", net_kinds=("gamma-ray",))

    def test_unknown_system_rejected_without_rewriting_aliases(self):
        with pytest.raises(ValueError, match="unknown system 'nope'"):
            ChaosSpec("nope")
        assert ChaosSpec("shore").system == "shore"

    @pytest.mark.parametrize(
        "overrides", [{"n_txns": 0}, {"n_txns": -5}, {"n_crashes": -1}]
    )
    def test_empty_budget_rejected(self, overrides):
        # n_txns=0 used to pass vacuously; n_crashes=-1 divided by zero.
        with pytest.raises(ValueError, match="n_txns|n_crashes"):
            ChaosSpec("hyper", **overrides)

    def test_suite_rejects_bad_input_before_any_work(self, monkeypatch):
        from repro.faults import chaos as chaos_module

        def no_work(task):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(chaos_module, "_run_suite_task", no_work)
        with pytest.raises(ValueError, match="at least one spec"):
            chaos_module.run_chaos_suite([])
        with pytest.raises(ValueError, match="unknown chaos workload"):
            chaos_module.run_chaos_suite([ChaosSpec("hyper")], ["nope"])


class TestReplicatedChaos:
    @pytest.mark.parametrize("ack", ["async", "sync-one", "quorum"])
    def test_replicated_run_clean_in_every_ack_mode(self, ack):
        spec = ChaosSpec.quick("shore-mt", seed=9, replicas=2, ack=ack)
        result = ChaosRunner(spec, _workload("micro")).run()
        assert result.ok, result.all_problems()
        assert result.crashes, "no crash was injected"
        assert result.failovers == len(result.crashes)
        assert result.acked > 0
        assert len(set(result.replica_digests)) == 1  # byte-converged

    def test_partitioned_primary_quorum_failover(self):
        """The acceptance scenario: partition the primary mid-benchmark
        in quorum mode; failover must complete and every invariant hold."""
        spec = ChaosSpec.quick(
            "shore-mt", seed=3, replicas=2, ack="quorum",
            net_kinds=("partition",),
        )
        a = ChaosRunner(spec, _workload("tpcc")).run()
        b = ChaosRunner(spec, _workload("tpcc")).run()
        assert a.ok, a.all_problems()
        assert a.failovers >= 1
        assert a.net_faults.get("partition", 0) >= 1
        assert a.net_counters["partition_drops"] > 0
        assert a.failed_invariants() == []
        assert a.digest() == b.digest()  # same seed -> identical serial

    def test_crash_schedule_matches_replication_off(self):
        """Turning replication on must not shift the crash schedule."""
        off = ChaosRunner(
            ChaosSpec.quick("shore-mt", seed=9), _workload("tpcc")
        ).run()
        on = ChaosRunner(
            ChaosSpec.quick("shore-mt", seed=9, replicas=2, ack="quorum"),
            _workload("tpcc"),
        ).run()
        assert [(c.point, c.hit, c.txn_index) for c in off.crashes] == [
            (c.point, c.hit, c.txn_index) for c in on.crashes
        ]

    def test_replicated_digest_deterministic_across_ack_modes_runs(self):
        spec = ChaosSpec.quick("voltdb", seed=11, replicas=2, ack="sync-one")
        a = ChaosRunner(spec, _workload("micro")).run()
        b = ChaosRunner(spec, _workload("micro")).run()
        assert a.digest() == b.digest()
        assert a.replica_digests == b.replica_digests


class TestSuiteAndCLI:
    def test_cli_exits_nonzero_and_names_invariants_on_failure(self, monkeypatch, capsys):
        from repro.bench.cli import main
        from repro.faults import chaos as chaos_module

        def fake_suite(**kwargs):
            return (
                "chaos shore-mt x micro: FAIL\n"
                "CHAOS FAILURES (see above) — failing invariants: "
                "no-acked-txn-lost, replica-convergence",
                False,
            )

        monkeypatch.setattr(chaos_module, "run_chaos_suite", fake_suite)
        status = main(["chaos", "--quick"])
        out = capsys.readouterr().out
        assert status == 1
        assert "no-acked-txn-lost" in out
        assert "replica-convergence" in out

    def test_cli_exits_zero_on_success(self, monkeypatch, capsys):
        from repro.bench.cli import main
        from repro.faults import chaos as chaos_module

        monkeypatch.setattr(
            chaos_module, "run_chaos_suite",
            lambda **kwargs: ("all chaos runs clean", True),
        )
        assert main(["chaos", "--quick"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_suite_verdict_names_failing_invariants(self, monkeypatch):
        from repro.faults import chaos as chaos_module

        monkeypatch.setattr(
            chaos_module, "_run_suite_task",
            lambda task: ("chaos cell: FAIL", False, ("no-acked-txn-lost",)),
        )
        text, ok = chaos_module.run_chaos_suite(
            [ChaosSpec.quick("shore-mt")], ["micro"]
        )
        assert not ok
        assert text.splitlines()[-1] == (
            "CHAOS FAILURES (see above) — failing invariants: no-acked-txn-lost"
        )
