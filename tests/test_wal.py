"""Tests for WAL records, the transaction log, and recovery analysis."""

import pytest

from repro.common.clock import years
from repro.common.errors import WalError
from repro.storage import TupleVersion
from repro.wal import (RecoveryPlan, TransactionLog, WalRecord,
                       WalRecordType, analyse, iter_mirror, mirror_frame)


def make_log(tmp_path, **kwargs):
    return TransactionLog(tmp_path / "wal.log", **kwargs)


class TestWalRecord:
    def test_round_trip_all_fields(self):
        record = WalRecord(WalRecordType.INSERT, txn_id=42, lsn=7,
                           commit_time=99, tuple_bytes=b"tuple",
                           relation_id=3, key=b"\x01k", start=-5,
                           pgno=12, hist_ref="migrated/p12-0",
                           split_time=1000)
        parsed, offset = WalRecord.from_bytes(record.to_bytes(), 0)
        assert parsed == record
        assert offset == len(record.to_bytes())

    def test_corrupt_crc_rejected(self):
        raw = bytearray(WalRecord(WalRecordType.BEGIN, txn_id=1).to_bytes())
        raw[-1] ^= 0xFF
        with pytest.raises(WalError):
            WalRecord.from_bytes(bytes(raw), 0)

    def test_truncated_rejected(self):
        raw = WalRecord(WalRecordType.BEGIN, txn_id=1).to_bytes()
        with pytest.raises(WalError):
            WalRecord.from_bytes(raw[: len(raw) - 3], 0)


class TestMirrorCodec:
    TUPLE = TupleVersion(relation_id=3, key=b"\x01k", start=42,
                         stamped=False, eol=False, seq=0,
                         payload=b"payload" * 20)

    def full(self, rtype):
        return WalRecord(rtype, txn_id=42, lsn=7, commit_time=99,
                         tuple_bytes=self.TUPLE.to_bytes(), relation_id=5,
                         key=b"\x02j", start=-5, pgno=12, hist_ref="g-1",
                         split_time=1000)

    def test_projection_keeps_what_the_audit_reads(self):
        expected = {
            WalRecordType.BEGIN: WalRecord(WalRecordType.BEGIN, txn_id=42),
            WalRecordType.ABORT: WalRecord(WalRecordType.ABORT, txn_id=42),
            WalRecordType.PREPARE: WalRecord(WalRecordType.PREPARE,
                                             txn_id=42),
            WalRecordType.COMMIT: WalRecord(WalRecordType.COMMIT,
                                            txn_id=42, commit_time=99),
            # the identity comes from the tuple header, not the fields
            WalRecordType.INSERT: WalRecord(WalRecordType.INSERT,
                                            txn_id=42, relation_id=3,
                                            key=b"\x01k"),
        }
        for rtype in WalRecordType:
            frame = mirror_frame(self.full(rtype))
            if rtype in expected:
                assert list(iter_mirror(frame)) == [expected[rtype]]
            else:  # CHECKPOINT, TIME_SPLIT, PHYS_DELETE
                assert frame == b"", rtype
        assert b"payload" not in mirror_frame(
            self.full(WalRecordType.INSERT))

    def test_corrupt_or_torn_frame_ends_the_iteration(self):
        good = mirror_frame(self.full(WalRecordType.BEGIN))
        commit = mirror_frame(self.full(WalRecordType.COMMIT))
        flipped = bytearray(commit)
        flipped[-1] ^= 0xFF
        assert len(list(iter_mirror(good + bytes(flipped) + good))) == 1
        assert len(list(iter_mirror(good + commit[:-3]))) == 1
        assert list(iter_mirror(good + commit)) == \
            list(iter_mirror(good)) + list(iter_mirror(commit))


class TestTransactionLog:
    def test_append_assigns_increasing_lsns(self, tmp_path):
        log = make_log(tmp_path)
        lsns = [log.append(WalRecord(WalRecordType.BEGIN, txn_id=i))
                for i in range(5)]
        assert lsns == [1, 2, 3, 4, 5]

    def test_unflushed_records_not_durable(self, tmp_path):
        log = make_log(tmp_path)
        log.append(WalRecord(WalRecordType.BEGIN, txn_id=1))
        assert list(log.iter_records()) == []
        log.flush()
        assert [r.txn_id for r in log.iter_records()] == [1]

    def test_drop_buffer_simulates_crash(self, tmp_path):
        log = make_log(tmp_path)
        log.append(WalRecord(WalRecordType.BEGIN, txn_id=1))
        log.flush()
        log.append(WalRecord(WalRecordType.COMMIT, txn_id=1))
        log.drop_buffer()
        log.flush()
        types = [r.rtype for r in log.iter_records()]
        assert types == [WalRecordType.BEGIN]

    def test_flush_to_only_when_needed(self, tmp_path):
        log = make_log(tmp_path)
        lsn = log.append(WalRecord(WalRecordType.BEGIN, txn_id=1))
        log.flush_to(lsn - 1)
        assert log.flushed_lsn == lsn - 1
        log.flush_to(lsn)
        assert log.flushed_lsn == lsn

    def test_lsn_continues_after_reopen(self, tmp_path):
        log = make_log(tmp_path)
        log.append(WalRecord(WalRecordType.BEGIN, txn_id=1))
        log.flush()
        log.close()
        log2 = make_log(tmp_path)
        assert log2.append(WalRecord(WalRecordType.BEGIN, txn_id=2)) == 2

    def test_torn_tail_ignored(self, tmp_path):
        log = make_log(tmp_path)
        log.append(WalRecord(WalRecordType.BEGIN, txn_id=1))
        log.flush()
        log.close()
        with open(tmp_path / "wal.log", "ab") as handle:
            handle.write(b"\x40\x00\x00\x00garbage")  # torn frame
        log2 = make_log(tmp_path)
        assert [r.txn_id for r in log2.iter_records()] == [1]

    def test_worm_mirror_receives_flushed_bytes(self, tmp_path, worm):
        log = make_log(tmp_path)
        log.set_worm_mirror(worm, "txnlog/epoch-1", retention=years(1))
        log.append(WalRecord(WalRecordType.BEGIN, txn_id=9))
        log.flush()
        [record] = iter_mirror(worm.read("txnlog/epoch-1"))
        assert (record.rtype, record.txn_id) == (WalRecordType.BEGIN, 9)

    def test_truncate_resets_file_not_worm(self, tmp_path, worm):
        log = make_log(tmp_path)
        log.set_worm_mirror(worm, "txnlog/epoch-1", retention=years(1))
        log.append(WalRecord(WalRecordType.BEGIN, txn_id=1))
        log.flush()
        log.truncate()
        assert list(log.iter_records()) == []
        assert worm.size("txnlog/epoch-1") > 0

    def test_truncate_with_buffer_rejected(self, tmp_path):
        log = make_log(tmp_path)
        log.append(WalRecord(WalRecordType.BEGIN, txn_id=1))
        with pytest.raises(WalError):
            log.truncate()


class TestRecoveryAnalysis:
    def test_classification(self):
        records = [
            WalRecord(WalRecordType.BEGIN, txn_id=1),
            WalRecord(WalRecordType.BEGIN, txn_id=2),
            WalRecord(WalRecordType.BEGIN, txn_id=3),
            WalRecord(WalRecordType.INSERT, txn_id=1, tuple_bytes=b"t"),
            WalRecord(WalRecordType.COMMIT, txn_id=1, commit_time=500),
            WalRecord(WalRecordType.ABORT, txn_id=2),
        ]
        plan = analyse(records)
        assert plan.committed == {1: 500}
        assert plan.aborted == {2}
        assert plan.losers == {3}
        assert plan.outcome_of(1) == "committed"
        assert plan.outcome_of(2) == "aborted"
        assert plan.outcome_of(3) == "loser"

    def test_checkpoint_and_time_split_ignored_for_outcomes(self):
        records = [
            WalRecord(WalRecordType.CHECKPOINT),
            WalRecord(WalRecordType.TIME_SPLIT, pgno=4, hist_ref="h"),
        ]
        plan = analyse(records)
        assert plan.losers == set()
        assert len(plan.records) == 2

    def test_empty_log(self):
        plan = analyse([])
        assert isinstance(plan, RecoveryPlan)
        assert not plan.committed and not plan.aborted and not plan.losers
