"""The one fan-out helper: ordered results and worker sanitizer state."""

import pytest

from repro.faults.chaos import run_chaos_suite
from repro.lint import sanitizer
from repro.sharding import run_sharded_chaos_suite
from repro.util.fanout import ordered_map
from repro.util.rng import child_rng


@pytest.fixture(autouse=True)
def clean_sanitizer():
    """Every test starts and ends disarmed with empty state."""
    sanitizer.reset()
    sanitizer.disarm()
    yield
    sanitizer.reset()
    sanitizer.disarm()


def _square(n: int) -> int:
    return n * n


def _draw_outside_scope(seed: int) -> float:
    """A pool task that draws its workload stream inside another scope."""
    rng = child_rng(seed, "workload")
    with sanitizer.scope("fault-schedule"):
        return rng.random()


class TestOrderedMap:
    @pytest.mark.parametrize("jobs", [None, 1, 2])
    def test_results_in_submission_order(self, jobs):
        assert ordered_map(_square, [3, 1, 2], jobs, label="squares") == [9, 1, 4]

    def test_worker_violations_reach_the_parent(self):
        with sanitizer.sanitizing():
            serial = ordered_map(_draw_outside_scope, [1, 2], 1, label="draws")
            serial_state = (sanitizer.snapshot_draws(), sanitizer.violations())
            sanitizer.reset()
            fanned = ordered_map(_draw_outside_scope, [1, 2], 2, label="draws")
            fanned_state = (sanitizer.snapshot_draws(), sanitizer.violations())
        assert fanned == serial
        assert fanned_state[1], "a worker's cross-stream draw never reached the parent"
        assert fanned_state == serial_state


def _single_node_suite(jobs):
    return run_chaos_suite(
        systems=["shore-mt"], workloads=["micro", "tpcc"], quick=True,
        replicas=2, ack="quorum", jobs=jobs,
    )


def _sharded_suite(jobs):
    return run_sharded_chaos_suite(n_shards=2, seeds=range(1, 3), n_txns=16, jobs=jobs)


@pytest.mark.parametrize("suite", [_single_node_suite, _sharded_suite])
def test_chaos_suite_sanitizer_summary_matches_serial(suite):
    def run(jobs):
        sanitizer.reset()
        with sanitizer.sanitizing():
            report = suite(jobs)
        return report, sanitizer.summary()

    serial, fanned = run(1), run(2)
    assert "0 stream(s)" not in serial[1]
    assert fanned == serial
