"""Write-ahead-log tests."""

import random

import pytest

from repro.core.trace import AccessTrace, DSTORE
from repro.storage.address_space import DataAddressSpace
from repro.storage.wal import WriteAheadLog, record_checksum, torn_copy


def make(**kw) -> WriteAheadLog:
    return WriteAheadLog("wal", DataAddressSpace(), **kw)


class TestAppend:
    def test_lsns_monotonic(self):
        wal = make()
        records = [wal.append(1, "update", 32) for _ in range(5)]
        lsns = [r.lsn for r in records]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == 5

    def test_append_emits_sequential_stores(self):
        wal = make()
        t = AccessTrace()
        wal.append(1, "update", 200, t, mod=4)
        assert all(k == DSTORE for k in t.kinds)
        assert t.addrs == list(range(t.addrs[0], t.addrs[0] + len(t)))

    def test_consecutive_appends_adjacent(self):
        wal = make()
        t1, t2 = AccessTrace(), AccessTrace()
        wal.append(1, "update", 40, t1)
        wal.append(1, "update", 40, t2)
        assert t2.addrs[0] - t1.addrs[0] <= 2  # append locality

    def test_buffer_wraps(self):
        wal = make(buffer_bytes=1024)
        for _ in range(100):
            wal.append(1, "update", 100)
        assert wal._head <= 1024


class TestGroupCommit:
    def test_flush_after_group_size_commits(self):
        wal = make(group_commit_size=4)
        for txn in range(4):
            wal.append(txn, "commit", 16)
        assert wal.flushes == 1
        assert wal.unflushed_records == 0

    def test_updates_do_not_trigger_flush(self):
        wal = make(group_commit_size=2)
        for _ in range(10):
            wal.append(1, "update", 16)
        assert wal.flushes == 0
        assert wal.unflushed_records == 10

    def test_force(self):
        wal = make()
        wal.append(1, "update", 16)
        wal.force()
        assert wal.unflushed_records == 0

    def test_record_line_estimate(self):
        wal = make()
        assert wal.estimated_record_lines(0) == 1
        assert wal.estimated_record_lines(200) == 4


class TestIntegrity:
    def test_append_stamps_verifiable_checksum(self):
        wal = make()
        record = wal.append(3, "update", 16, payload=("t", 1, (1, 2)))
        assert record.checksum == record_checksum(
            record.lsn, 3, "update", 16, ("t", 1, (1, 2))
        )
        assert record.intact

    def test_torn_copy_fails_verification(self):
        wal = make()
        record = wal.append(1, "update", 16)
        assert not torn_copy(record).intact

    def test_record_too_large_for_buffer(self):
        wal = make(buffer_bytes=256)
        with pytest.raises(ValueError, match="cannot fit"):
            wal.append(1, "update", 256)
        # A record that exactly fits still appends.
        wal.append(1, "update", 256 - 24)

    def test_truncate_before_reclaims_history(self):
        wal = make(retain_all=True)
        for _ in range(6):
            wal.append(1, "update", 8)
        dropped = wal.truncate_before(4)
        assert dropped == 3
        assert [r.lsn for r in wal.records] == [4, 5, 6]


class TestRecordsSince:
    """records_since slices at a binary search; the scan it replaced is
    the reference."""

    @staticmethod
    def _assert_matches_scan(wal, rng):
        lsns = [r.lsn for r in wal.records]
        top = wal.next_lsn + 2
        cutoffs = {-1, 0, top} | set(lsns) | {rng.randrange(-1, top) for _ in range(40)}
        for cutoff in sorted(cutoffs):
            expected = [r for r in wal.records if r.lsn > cutoff]
            assert wal.records_since(cutoff) == expected, cutoff

    def _fill(self, wal, rng, n):
        for i in range(n):
            kind = rng.choice(["update", "insert", "delete", "commit", "abort"])
            wal.append(1 + i // 4, kind, rng.randrange(0, 64))

    def test_random_cutoffs(self):
        rng = random.Random(7)
        wal = make(retain_all=True)
        self._assert_matches_scan(wal, rng)  # empty log
        self._fill(wal, rng, 300)
        self._assert_matches_scan(wal, rng)

    def test_after_truncate_before(self):
        rng = random.Random(8)
        wal = make(retain_all=True)
        self._fill(wal, rng, 200)
        wal.truncate_before(rng.randrange(2, 150))
        assert wal.records[0].lsn > 1
        self._assert_matches_scan(wal, rng)

    def test_after_group_commit_trim(self):
        rng = random.Random(9)
        wal = make(group_commit_size=4)
        for txn in range(1, 80):
            wal.append(txn, "update", 16)
            wal.append(txn, "commit", 8)
        assert wal.flushes > 0 and wal.records[0].lsn > 1  # the tail was trimmed
        self._assert_matches_scan(wal, rng)
