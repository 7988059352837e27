"""The one fan-out helper: ordered results and worker sanitizer state."""

import pytest

from repro.util import sanitizer
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
        assert ordered_map(_square, [3, 1, 2], jobs) == [9, 1, 4]

    def test_worker_violations_reach_the_parent(self):
        with sanitizer.sanitizing():
            serial = ordered_map(_draw_outside_scope, [1, 2], 1)
            serial_state = (sanitizer.snapshot_draws(), sanitizer.violations())
            sanitizer.reset()
            fanned = ordered_map(_draw_outside_scope, [1, 2], 2)
            fanned_state = (sanitizer.snapshot_draws(), sanitizer.violations())
        assert fanned == serial
        assert fanned_state[1], "a worker's cross-stream draw never reached the parent"
        assert fanned_state == serial_state

