"""TPC-B workload tests."""

import random

import pytest

from repro.engines.registry import make_engine
from repro.workloads.tpcb import ACCOUNTS_PER_BRANCH, TELLERS_PER_BRANCH, TPCB


@pytest.fixture
def wl() -> TPCB:
    return TPCB(db_bytes=100 << 30)


@pytest.fixture
def engine(wl):
    engine = make_engine("dbms-m")
    wl.setup(engine)
    return engine


class TestScaling:
    def test_paper_cardinalities_at_100gb(self, wl):
        """Section 5.1.2: ~20K branches, ~200K tellers, ~2B accounts."""
        assert wl.n_branches == pytest.approx(20_000, rel=0.05)
        assert wl.n_tellers == pytest.approx(200_000, rel=0.05)
        assert wl.n_accounts == pytest.approx(2_000_000_000, rel=0.05)

    def test_ratios(self, wl):
        assert wl.n_tellers == wl.n_branches * TELLERS_PER_BRANCH
        assert wl.n_accounts == wl.n_branches * ACCOUNTS_PER_BRANCH

    def test_four_tables_history_grows(self, wl):
        specs = {s.name: s for s in wl.table_specs()}
        assert set(specs) == {"branch", "teller", "account", "history"}
        assert specs["history"].grows
        assert specs["branch"].warm_priority > specs["account"].warm_priority


class TestAccountUpdate:
    def test_updates_three_tables_and_appends_history(self, wl, engine):
        rng = random.Random(0)
        proc, body = wl.next_transaction(rng)
        assert proc == "account_update"
        history = engine.table("history").heap
        before = history.n_rows
        engine.execute(proc, body)
        assert history.n_rows == before + 1
        assert engine.stats.operations == 4

    def test_balances_add_up(self, wl, engine):
        rng = random.Random(3)
        # Run several transactions, then check conservation: the account
        # delta equals the branch delta for a fresh single-branch run.
        totals = {"account": 0, "teller": 0, "branch": 0}
        for _ in range(5):
            proc, body = wl.next_transaction(rng)
            engine.execute(proc, body)
        history = engine.table("history").heap
        deltas = [history.read(rid)[1] for rid in range(1, history.n_rows)]
        assert deltas  # recorded delta per transaction
        # Every history row's referenced teller belongs to its branch.
        for rid in range(1, history.n_rows):
            account, delta, teller, branch, _ = history.read(rid)
            assert teller // TELLERS_PER_BRANCH == branch
            assert account // ACCOUNTS_PER_BRANCH == branch

    def test_partition_homing(self, wl):
        rng = random.Random(1)

        class Spy:
            def __init__(self):
                self.branches = set()

            def update(self, table, key, column, fn):
                if table == "branch":
                    self.branches.add(key)
                return (key, 0)

            def insert(self, table, values, key=None):
                return 0

        spy = Spy()
        for _ in range(30):
            _, body = wl.next_transaction(rng, partition=1, n_partitions=4)
            body(spy)
        per_part = -(-wl.n_branches // 4)
        assert spy.branches
        assert all(per_part <= b < 2 * per_part for b in spy.branches)

    def test_update_persistence(self, wl, engine):
        """The same account updated twice accumulates both deltas."""
        account_table = engine.table("account")
        base = account_table.heap.read(0)[1]

        def plus(txn, amount):
            txn.update("account", 0, "balance", lambda v: v + amount)

        engine.execute("account_update", lambda txn: plus(txn, 10))
        engine.execute("account_update", lambda txn: plus(txn, 5))
        reader = engine.begin()
        assert reader.read("account", 0)[1] == base + 15
        reader.commit()
