"""Auditor edge cases: forged artefacts, malformed logs, protocol abuse."""

import pytest

from repro import (Auditor, ComplianceConfig, ComplianceMode, CompliantDB,
                   DBConfig, EngineConfig, Field, FieldType, Schema,
                   SimulatedClock, minutes)
from repro.common.errors import AuditError
from repro.core import Adversary, sorted_completeness_check
from repro.core.records import CLogRecord, CLogType
from repro.core.snapshot import snapshot_name
from repro.crypto import AuditorKey
from repro.storage.page import Page

ROWS = Schema("rows", [
    Field("k", FieldType.INT),
    Field("v", FieldType.INT),
], key_fields=["k"])


def make_db(tmp_path, mode=ComplianceMode.LOG_CONSISTENT, key=None):
    db = CompliantDB.create(
        tmp_path / "db", clock=SimulatedClock(),
        config=DBConfig(engine=EngineConfig(page_size=1024,
                                            buffer_pages=16),
                        compliance=ComplianceConfig(mode=mode)),
        auditor_key=key)
    db.create_relation(ROWS)
    for k in range(10):
        with db.transaction() as txn:
            db.insert(txn, "rows", {"k": k, "v": k})
    return db


class TestSnapshotTrust:
    def test_wrong_auditor_key_fails(self, tmp_path):
        db = make_db(tmp_path, key=AuditorKey.generate("alice"))
        report = Auditor(db, key=AuditorKey.generate("mala")).audit()
        assert not report.ok
        assert "snapshot" in report.codes()

    def test_missing_snapshot_fails(self, tmp_path):
        db = make_db(tmp_path)
        # simulate a lost genesis snapshot by bumping the epoch: there is
        # no snap for epoch 2
        meta = db.engine.buffer.get(0)
        meta.meta["audit_epoch"] = 2
        db.engine.buffer.mark_dirty(meta)
        from repro.core.compliance_log import ComplianceLog
        db.clog = ComplianceLog(db.worm, 2)
        db.plugin.rotate_epoch(db.clog)
        report = Auditor(db).audit()
        assert not report.ok
        assert "snapshot" in report.codes()


class TestProtocolAbuse:
    def test_conflicting_duplicate_stamp(self, tmp_path):
        db = make_db(tmp_path)
        txn_id = sorted(db.plugin.commit_map)[0]
        db.clog.append(CLogRecord(CLogType.STAMP_TRANS, txn_id=txn_id,
                                  commit_time=999_999_999_999))
        report = Auditor(db).audit()
        assert not report.ok
        assert report.codes() & {"stamp-duplicate", "stamp-order"}

    def test_benign_duplicate_stamp_tolerated(self, tmp_path):
        # exact duplicates occur legitimately during recovery replay
        db = make_db(tmp_path)
        txn_id, commit_time = sorted(db.plugin.commit_map.items())[-1]
        db.clog.append(CLogRecord(CLogType.STAMP_TRANS, txn_id=txn_id,
                                  commit_time=commit_time))
        report = Auditor(db).audit()
        assert report.ok, report.summary()

    def test_page_reset_outside_recovery(self, tmp_path):
        db = make_db(tmp_path, mode=ComplianceMode.HASH_ON_READ)
        db.clog.append(CLogRecord(CLogType.PAGE_RESET, pgno=3,
                                  left_content=[]))
        report = Auditor(db).audit()
        assert not report.ok
        assert "reset-outside-recovery" in report.codes()

    def test_forged_reset_of_a_settled_page(self, tmp_path):
        # a forged recovery re-bases a page no record touched since the
        # last CHECKPOINT, so a victim's read of tampered bytes verifies;
        # the tampering is then reverted.  Only the reset itself is left
        # to give the laundering away — at any slice count.
        db = make_db(tmp_path, mode=ComplianceMode.HASH_ON_READ)
        mala = Adversary(db)
        mala.settle()
        handle = mala.begin_state_reversion("rows", (3,),
                                            {"k": 3, "v": 424242})
        tampered = Page.from_bytes(db.engine.pager.read_raw(handle.pgno))
        db.clog.append(CLogRecord(CLogType.START_RECOVERY,
                                  timestamp=db.clock.now()))
        db.clog.append(CLogRecord(
            CLogType.PAGE_RESET, pgno=handle.pgno,
            left_content=[t.to_bytes() for t in tampered.entries],
            timestamp=db.clock.now()))
        assert db.get("rows", (3,)) == {"k": 3, "v": 424242}
        handle.revert()
        db.engine.buffer.drop_all()
        reports = [Auditor(db, workers=workers).audit(rotate=False)
                   for workers in (0, 1, 2)]
        assert [(f.code, f.pgno) for f in reports[0].findings] == \
            [("reset-unexplained", handle.pgno)]
        assert reports[1].comparable() == reports[0].comparable()
        assert reports[2].comparable() == reports[0].comparable()

    def test_migrate_record_with_missing_worm_page(self, tmp_path):
        db = make_db(tmp_path)
        db.clog.append(CLogRecord(CLogType.MIGRATE, relation_id=2, pgno=3,
                                  hist_ref="hist/r2-424242",
                                  split_time=1))
        report = Auditor(db).audit()
        assert not report.ok
        assert "migrate-missing-page" in report.codes()

    def test_unresolved_new_tuple(self, tmp_path):
        # a NEW_TUPLE whose transaction never commits or aborts
        from repro.storage.record import TupleVersion
        db = make_db(tmp_path)
        ghost = TupleVersion(relation_id=2, key=b"\x01zz", start=424242,
                             stamped=False, eol=False, seq=0, payload=b"")
        db.clog.append(CLogRecord(CLogType.NEW_TUPLE, pgno=3,
                                  tuple_bytes=ghost.to_bytes()))
        report = Auditor(db).audit()
        assert not report.ok
        assert "tuple-of-unresolved-txn" in report.codes()

    def test_regular_mode_cannot_be_audited(self, tmp_path):
        db = make_db(tmp_path, mode=ComplianceMode.REGULAR)
        with pytest.raises(AuditError):
            Auditor(db).audit()


class TestAuditReportErgonomics:
    def test_summary_mentions_status_and_counts(self, tmp_path):
        db = make_db(tmp_path)
        report = Auditor(db).audit()
        text = report.summary()
        assert "COMPLIANT" in text
        assert str(report.final_tuples) in text

    def test_findings_capped_in_summary(self, tmp_path):
        from repro.core.audit import AuditReport
        report = AuditReport(epoch=1)
        for i in range(30):
            report.add("x", f"finding {i}")
        text = report.summary()
        assert "and 10 more" in text

    def test_phase_timings_recorded(self, tmp_path):
        db = make_db(tmp_path)
        report = Auditor(db).audit()
        assert {"snapshot", "log", "final",
                "checks"} <= report.phase_seconds.keys()
        assert "rotate" in report.phase_seconds  # passed + rotated


class TestSortedCompleteness:
    def test_accepts_equal_multisets(self):
        snapshot, log = [b"a", b"b"], [b"c", b"c"]
        assert sorted_completeness_check(snapshot, log,
                                         [b"c", b"a", b"c", b"b"])

    def test_rejects_missing_tuple(self):
        assert not sorted_completeness_check([b"a"], [b"b"], [b"a"])

    def test_rejects_extra_tuple(self):
        assert not sorted_completeness_check([b"a"], [], [b"a", b"x"])

    def test_multiset_semantics(self):
        assert not sorted_completeness_check([b"a"], [b"a"], [b"a"])
