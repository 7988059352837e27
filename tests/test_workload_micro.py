"""Micro-benchmark workload tests."""

import random

import pytest

from repro.engines.registry import make_engine
from repro.storage.record import LONG, STRING50
from repro.workloads.base import PAPER_DB_SIZES, size_label
from repro.workloads.microbench import BYTES_PER_ROW, MicroBenchmark


class TestScaling:
    def test_paper_sizes(self):
        assert list(PAPER_DB_SIZES) == ["1MB", "10MB", "10GB", "100GB"]

    def test_hundred_gb_is_over_a_billion_rows(self):
        """Section 5.1.2: the 100 GB table has >1e9 rows."""
        wl = MicroBenchmark(db_bytes=100 << 30)
        assert wl.n_rows > 1_000_000_000
        assert wl.n_rows == (100 << 30) // BYTES_PER_ROW

    def test_size_labels(self):
        assert size_label(1 << 20) == "1MB"
        assert size_label(100 << 30) == "100GB"

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            MicroBenchmark(db_bytes=1000)

    def test_rows_per_txn_validated(self):
        with pytest.raises(ValueError):
            MicroBenchmark(db_bytes=1 << 20, rows_per_txn=0)


class TestGeneration:
    def wl(self, **kw):
        return MicroBenchmark(db_bytes=1 << 20, **kw)

    def test_single_table_spec(self):
        specs = self.wl().table_specs()
        assert len(specs) == 1
        assert specs[0].schema.columns[0][1] is LONG

    def test_string_variant(self):
        specs = self.wl(column_type=STRING50).table_specs()
        assert specs[0].schema.columns[0][1] is STRING50

    def test_read_only_body_reads(self):
        wl = self.wl(rows_per_txn=10)
        rng = random.Random(0)
        engine = make_engine("hyper")
        wl.setup(engine)
        proc, body = wl.next_transaction(rng)
        assert "ro" in proc
        engine.execute(proc, body)
        assert engine.stats.operations == 10

    def test_read_write_body_updates(self):
        wl = self.wl(read_write=True, rows_per_txn=3)
        rng = random.Random(0)
        engine = make_engine("voltdb")
        wl.setup(engine)
        proc, body = wl.next_transaction(rng)
        assert "rw" in proc
        engine.execute(proc, body)
        # Updates persisted: at least one row was materialised.
        assert engine.table("micro").heap.materialized_rows == 3

    def test_keys_distinct_within_txn(self):
        wl = self.wl(rows_per_txn=100)
        rng = random.Random(7)
        keys: list[int] = []

        class Spy:
            def read(self, table, key):
                keys.append(key)
                return (key, 0)

        _, body = wl.next_transaction(rng)
        body(Spy())
        assert len(set(keys)) == 100

    def test_partition_homing(self):
        wl = self.wl()
        rng = random.Random(1)
        keys = []

        class Spy:
            def read(self, table, key):
                keys.append(key)
                return (key, 0)

        for _ in range(50):
            _, body = wl.next_transaction(rng, partition=2, n_partitions=4)
            body(Spy())
        per_part = -(-wl.n_rows // 4)
        assert all(2 * per_part <= k < 3 * per_part for k in keys)

    def test_generation_deterministic_under_seed(self):
        wl = self.wl(rows_per_txn=5)
        keys_a, keys_b = [], []

        class Spy:
            def __init__(self, sink):
                self.sink = sink

            def read(self, table, key):
                self.sink.append(key)
                return (key, 0)

        for sink in (keys_a, keys_b):
            rng = random.Random(42)
            for _ in range(10):
                _, body = wl.next_transaction(rng)
                body(Spy(sink))
        assert keys_a == keys_b
