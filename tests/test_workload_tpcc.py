"""TPC-C workload tests."""

import random
from collections import Counter

import pytest

from repro.engines.config import EngineConfig
from repro.engines.registry import make_engine
from repro.workloads.tpcc import (
    CUSTOMERS_PER_DISTRICT,
    DISTRICTS_PER_WAREHOUSE,
    INITIAL_ORDERS_PER_DISTRICT,
    ITEMS,
    MIX,
    ORDER_CAP,
    TPCC,
    order_line_count,
)


@pytest.fixture
def wl() -> TPCC:
    return TPCC(warehouses=4)


@pytest.fixture
def engine(wl):
    engine = make_engine("dbms-m", EngineConfig(index_kind="cc_btree"))
    wl.setup(engine)
    return engine


class TestSchema:
    def test_nine_tables(self, wl):
        assert len(wl.table_specs()) == 9

    def test_cardinalities(self, wl):
        specs = {s.name: s for s in wl.table_specs()}
        assert specs["warehouse"].n_rows == 4
        assert specs["district"].n_rows == 40
        assert specs["customer"].n_rows == 40 * CUSTOMERS_PER_DISTRICT
        assert specs["stock"].n_rows == 4 * ITEMS
        assert specs["item"].replicated

    def test_warehouses_scale_with_db_bytes(self):
        assert TPCC(db_bytes=100 << 30).n_warehouses == 1024

    def test_mix_sums_to_one(self):
        assert sum(p for _, p in MIX) == pytest.approx(1.0)
        read_only = sum(p for name, p in MIX if name in ("order_status", "stock_level"))
        assert read_only == pytest.approx(0.08)  # "2 of which... form 8%"


class TestKeyEncoding:
    def test_keys_dense_and_disjoint_across_districts(self, wl):
        d0 = wl.order_key(0, ORDER_CAP - 1)
        d1 = wl.order_key(1, 0)
        assert d1 == d0 + 1

    def test_order_line_nesting(self, wl):
        ok = wl.order_key(3, 10)
        assert wl.order_line_key(ok, 0) == ok * 15
        assert wl.order_line_key(ok, 14) == ok * 15 + 14

    def test_order_line_count_range(self):
        for seed in range(50):
            assert 5 <= order_line_count((0, 0, seed)) <= 15


class TestMix:
    def test_distribution_matches_deck(self, wl):
        rng = random.Random(0)
        counts = Counter(wl.next_transaction(rng)[0] for _ in range(4000))
        assert counts["new_order"] / 4000 == pytest.approx(0.45, abs=0.03)
        assert counts["payment"] / 4000 == pytest.approx(0.43, abs=0.03)
        for kind in ("order_status", "delivery", "stock_level"):
            assert counts[kind] / 4000 == pytest.approx(0.04, abs=0.015)


class TestTransactions:
    def run_kind(self, wl, engine, kind, rng, max_tries=400):
        for _ in range(max_tries):
            got, body = wl.next_transaction(rng)
            if got == kind:
                engine.execute(got, body)
                return True
        return False

    def test_new_order_inserts_order_and_lines(self, wl, engine):
        rng = random.Random(1)
        orders = engine.table("orders").heap
        lines = engine.table("order_line").heap
        before_orders, before_lines = orders.n_rows, lines.n_rows
        assert self.run_kind(wl, engine, "new_order", rng)
        assert orders.n_rows == before_orders + 1
        assert lines.n_rows >= before_lines + 5

    def test_new_order_advances_next_o_id(self, wl, engine):
        rng = random.Random(2)
        before = dict(wl._next_o_id)
        assert self.run_kind(wl, engine, "new_order", rng)
        changed = {k: v for k, v in wl._next_o_id.items() if before.get(k) != v}
        assert len(changed) == 1
        assert list(changed.values())[0] >= INITIAL_ORDERS_PER_DISTRICT + 1

    def test_payment_appends_history(self, wl, engine):
        rng = random.Random(3)
        history = engine.table("history").heap
        before = history.n_rows
        assert self.run_kind(wl, engine, "payment", rng)
        assert history.n_rows == before + 1

    def test_order_status_read_only(self, wl, engine):
        rng = random.Random(4)
        heaps = {name: t.heap.materialized_rows for name, t in engine.tables.items()}
        assert self.run_kind(wl, engine, "order_status", rng)
        after = {name: t.heap.materialized_rows for name, t in engine.tables.items()}
        assert heaps == after  # nothing written

    def test_stock_level_read_only(self, wl, engine):
        rng = random.Random(5)
        heaps = {name: t.heap.materialized_rows for name, t in engine.tables.items()}
        assert self.run_kind(wl, engine, "stock_level", rng)
        after = {name: t.heap.materialized_rows for name, t in engine.tables.items()}
        assert heaps == after

    def test_delivery_consumes_new_orders(self, wl, engine):
        rng = random.Random(6)
        assert self.run_kind(wl, engine, "delivery", rng)
        assert wl._next_delivery  # delivery pointers advanced

    def test_every_kind_executes_on_every_engine(self, wl):
        from repro.engines.registry import ALL_SYSTEMS

        rng = random.Random(7)
        for system in ALL_SYSTEMS:
            config = EngineConfig(
                index_kind="cc_btree" if system == "dbms-m" else None,
            )
            engine = make_engine(system, config)
            wl.setup(engine)
            seen = set()
            for _ in range(150):
                kind, body = wl.next_transaction(rng)
                engine.execute(kind, body)
                seen.add(kind)
                if len(seen) == 5:
                    break
            assert engine.stats.commits > 0

    def test_partition_homing_by_warehouse(self, wl):
        rng = random.Random(8)
        for _ in range(50):
            w = wl._pick_warehouse(rng, partition=1, n_partitions=4)
            assert w == 1  # 4 warehouses over 4 partitions

    def test_one_percent_rollback(self, wl):
        engine = make_engine("hyper")
        wl.setup(engine)
        rng = random.Random(9)
        executed = 0
        for _ in range(600):
            kind, body = wl.next_transaction(rng)
            if kind != "new_order":
                continue
            engine.execute(kind, body)
            executed += 1
        assert executed > 100
        assert 0 < engine.stats.aborts < executed * 0.06
