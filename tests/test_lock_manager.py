"""Lock-manager tests: the 2PL compatibility lattice, no-wait conflicts,
and release order independent of the interpreter's hash seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.trace import AccessTrace
from repro.storage.address_space import DataAddressSpace
from repro.storage.lock_manager import LockConflict, LockManager, LockMode, compatible


def make() -> LockManager:
    return LockManager("lm", DataAddressSpace())


class TestCompatibility:
    @pytest.mark.parametrize(
        "held,requested,ok",
        [
            (LockMode.S, LockMode.S, True),
            (LockMode.S, LockMode.X, False),
            (LockMode.X, LockMode.S, False),
            (LockMode.X, LockMode.X, False),
            (LockMode.IS, LockMode.IX, True),
            (LockMode.IX, LockMode.IX, True),
            (LockMode.IX, LockMode.S, False),
            (LockMode.IS, LockMode.X, False),
        ],
    )
    def test_matrix(self, held, requested, ok):
        assert compatible(held, requested) is ok


class TestAcquisition:
    def test_shared_locks_coexist(self):
        lm = make()
        lm.acquire(1, "row", LockMode.S)
        lm.acquire(2, "row", LockMode.S)
        assert lm.active_locks == 2

    def test_exclusive_conflicts(self):
        lm = make()
        lm.acquire(1, "row", LockMode.X)
        with pytest.raises(LockConflict) as exc:
            lm.acquire(2, "row", LockMode.X)
        assert exc.value.holder == 1
        assert exc.value.requester == 2
        assert lm.conflicts == 1

    def test_reader_blocks_writer(self):
        lm = make()
        lm.acquire(1, "row", LockMode.S)
        with pytest.raises(LockConflict):
            lm.acquire(2, "row", LockMode.X)

    def test_own_upgrade_allowed(self):
        lm = make()
        lm.acquire(1, "row", LockMode.S)
        lm.acquire(1, "row", LockMode.X)
        assert lm.holds(1, "row") == LockMode.X

    def test_reacquire_same_mode_idempotent(self):
        lm = make()
        lm.acquire(1, "row", LockMode.S)
        lm.acquire(1, "row", LockMode.S)
        assert lm.holds(1, "row") == LockMode.S

    def test_intention_locks_on_table(self):
        lm = make()
        lm.acquire(1, ("table", "t"), LockMode.IX)
        lm.acquire(2, ("table", "t"), LockMode.IS)
        lm.acquire(2, ("table", "t"), LockMode.IX)
        with pytest.raises(LockConflict):
            lm.acquire(3, ("table", "t"), LockMode.X)


class TestRelease:
    def test_release_all_frees_resources(self):
        lm = make()
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(1, "b", LockMode.S)
        assert lm.release_all(1) == 2
        assert lm.active_locks == 0
        lm.acquire(2, "a", LockMode.X)  # no conflict now

    def test_release_all_only_touches_own(self):
        lm = make()
        lm.acquire(1, "a", LockMode.S)
        lm.acquire(2, "a", LockMode.S)
        lm.release_all(1)
        assert lm.holds(2, "a") == LockMode.S
        assert lm.holds(1, "a") is None

    def test_release_with_no_locks(self):
        assert make().release_all(9) == 0

    def test_release_order_is_acquisition_order(self):
        lm = make()
        resources = [("table", "t")] + [("row", "t", k) for k in (9, 3, 7, 1, 5, 8, 2)]
        acquired = AccessTrace()
        for resource in resources:
            lm.acquire(1, resource, LockMode.S, acquired)
        lm.acquire(1, resources[0], LockMode.X, acquired)  # upgrade: no new entry
        released = AccessTrace()
        assert lm.release_all(1, released) == len(resources)
        # Each acquire and release touches one lock-head line (load + store).
        first_touch = list(dict.fromkeys(acquired.addrs))
        assert list(dict.fromkeys(released.addrs)) == first_touch


class TestEmission:
    def test_acquire_emits_lock_table_rmw(self):
        lm = make()
        t = AccessTrace()
        lm.acquire(1, "r", LockMode.S, t, mod=2)
        assert len(t) == 2  # load + store of the lock head
        assert lm.acquisitions == 1

    def test_same_resource_same_bucket_line(self):
        lm = make()
        t1, t2 = AccessTrace(), AccessTrace()
        lm.acquire(1, "r", LockMode.S, t1)
        lm.release_all(1)
        lm.acquire(2, "r", LockMode.S, t2)
        assert t1.addrs == t2.addrs


# One fig-tpcb-4core cell (shore-mt, 4 cores, 3 repetitions): its commits
# release many locks at once, so a hash-ordered release would move the
# lock-head touches and with them the dTLB walk count.
_MULTICORE_CELL = """
from dataclasses import asdict
from repro.bench.figures.common import (
    MULTITHREADED_CORES, TPC_DB_BYTES, cell_spec, engine_config_for,
)
from repro.bench.parallel import workload_spec
from repro.bench.runner import ExperimentRunner

config = engine_config_for("shore-mt", "tpcb")
spec = cell_spec("shore-mt", engine_config=config, n_cores=MULTITHREADED_CORES)
result = ExperimentRunner(spec, workload_spec("tpcb", db_bytes=TPC_DB_BYTES)).run(jobs=1)
print(sorted(asdict(result.counters).items()))
print(sorted(result.module_cycles.items()), result.measured_txns)
"""


def _run_cell(hashseed: str) -> str:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "-c", _MULTICORE_CELL],
        env=env, capture_output=True, text=True, check=True,
    ).stdout


def test_multicore_cell_is_independent_of_hash_seed():
    assert _run_cell("0") == _run_cell("7")
