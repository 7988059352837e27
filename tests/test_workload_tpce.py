"""TPC-E-lite workload tests (the paper-omission extension)."""

import random
from collections import Counter

import pytest

from repro.engines.registry import make_engine
from repro.workloads.tpce_lite import (
    ACCOUNTS_PER_CUSTOMER,
    HOLDINGS_PER_ACCOUNT,
    MIX,
    SECURITIES,
    TRADES_PER_ACCOUNT_CAP,
    TPCELite,
)


@pytest.fixture
def wl() -> TPCELite:
    return TPCELite(customers=2000)


@pytest.fixture
def engine(wl):
    engine = make_engine("voltdb")
    wl.setup(engine)
    return engine


class TestSchema:
    def test_eight_tables(self, wl):
        assert len(wl.table_specs()) == 8

    def test_cardinalities(self, wl):
        specs = {s.name: s for s in wl.table_specs()}
        assert specs["customer"].n_rows == 2000
        assert specs["account"].n_rows == 2000 * ACCOUNTS_PER_CUSTOMER
        assert specs["security"].n_rows == SECURITIES
        assert specs["security"].replicated
        assert specs["trade"].grows

    def test_scale_from_db_bytes(self):
        wl = TPCELite(db_bytes=100 << 30)
        assert wl.n_customers > 1_000_000

    def test_read_heavy_mix(self):
        """TPC-E's hallmark: ~77% read-only transactions."""
        read_only = sum(p for name, p in MIX if name in ("trade_lookup", "market_watch"))
        assert read_only == pytest.approx(0.77, abs=0.01)
        assert sum(p for _, p in MIX) == pytest.approx(1.0)


class TestTransactions:
    def run_kind(self, wl, engine, kind, rng, max_tries=300):
        for _ in range(max_tries):
            got, body = wl.next_transaction(rng)
            if got == kind:
                engine.execute(got, body)
                return True
        return False

    def test_mix_distribution(self, wl):
        rng = random.Random(0)
        counts = Counter(wl.next_transaction(rng)[0] for _ in range(3000))
        for name, p in MIX:
            assert counts[name] / 3000 == pytest.approx(p, abs=0.03), name

    def test_trade_order_inserts(self, wl, engine):
        rng = random.Random(1)
        trades = engine.table("trade").heap
        before = trades.n_rows
        assert self.run_kind(wl, engine, "trade_order", rng)
        assert trades.n_rows == before + 1

    def test_trade_result_completes(self, wl, engine):
        rng = random.Random(2)
        assert self.run_kind(wl, engine, "trade_order", rng)
        assert self.run_kind(wl, engine, "trade_result", rng)
        assert engine.stats.commits >= 2

    def test_read_only_kinds_write_nothing(self, wl, engine):
        rng = random.Random(3)
        for kind in ("trade_lookup", "market_watch"):
            before = {n: t.heap.materialized_rows for n, t in engine.tables.items()}
            assert self.run_kind(wl, engine, kind, rng)
            after = {n: t.heap.materialized_rows for n, t in engine.tables.items()}
            assert before == after, kind

    def test_trade_ids_stay_in_account_range(self, wl):
        rng = random.Random(4)
        for _ in range(200):
            account = rng.randrange(wl.n_accounts)
            t = wl.next_trade_id(account)
            assert 0 <= t < TRADES_PER_ACCOUNT_CAP

    def test_holding_keys_dense(self, wl):
        key = wl.holding_key(7, HOLDINGS_PER_ACCOUNT - 1)
        assert wl.holding_key(8, 0) == key + 1

    def test_runs_on_all_engines(self, wl):
        from repro.engines.registry import ALL_SYSTEMS

        rng = random.Random(5)
        for system in ALL_SYSTEMS:
            engine = make_engine(system)
            wl.setup(engine)
            for _ in range(12):
                kind, body = wl.next_transaction(rng)
                engine.execute(kind, body)
            assert engine.stats.commits > 0

    def test_partition_homing(self, wl):
        rng = random.Random(6)
        for _ in range(40):
            _, body = wl.next_transaction(rng, partition=0, n_partitions=4)
        # homing is by customer; spot-check the helper directly
        lo, hi = wl.partition_range(wl.n_customers, 0, 4)
        assert lo == 0 and hi == 500
