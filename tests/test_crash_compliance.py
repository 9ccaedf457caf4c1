"""Crash recovery under the compliance protocol: the Section IV-B window.

These tests crash the DBMS at adversarial moments and verify that the
compliance machinery (START_RECOVERY, replayed outcomes, PAGE_RESETs, the
WORM WAL mirror) keeps the *audit* sound — not just the data.
"""

import pytest

from repro import (Auditor, ComplianceConfig, ComplianceMode, CompliantDB,
                   DBConfig, EngineConfig, Field, FieldType, Schema,
                   SimulatedClock, minutes)
from repro.core.records import CLogType

ROWS = Schema("rows", [
    Field("k", FieldType.INT),
    Field("v", FieldType.INT),
], key_fields=["k"])


def make_db(tmp_path, mode=ComplianceMode.HASH_ON_READ):
    db = CompliantDB.create(
        tmp_path / "db", clock=SimulatedClock(),
        config=DBConfig(engine=EngineConfig(page_size=1024,
                                            buffer_pages=16),
                        compliance=ComplianceConfig(
                            mode=mode,
                            regret_interval=minutes(5))))
    db.create_relation(ROWS)
    return db


def put(db, k, v):
    with db.transaction() as txn:
        row = {"k": k, "v": v}
        if db.get("rows", (k,), txn=txn) is None:
            db.insert(txn, "rows", row)
        else:
            db.update(txn, "rows", row)


@pytest.mark.parametrize("mode", [ComplianceMode.LOG_CONSISTENT,
                                  ComplianceMode.HASH_ON_READ])
class TestCrashThenAudit:
    def test_crash_before_any_flush(self, tmp_path, mode):
        db = make_db(tmp_path, mode)
        for k in range(15):
            put(db, k, k)
        db.crash()
        db.recover()
        assert len(db.scan("rows")) == 15
        report = Auditor(db).audit()
        assert report.ok, report.summary()

    def test_crash_with_stolen_uncommitted_pages(self, tmp_path, mode):
        db = make_db(tmp_path, mode)
        for k in range(10):
            put(db, k, k)
        loser = db.begin()
        db.insert(loser, "rows", {"k": 777, "v": 7})
        db.engine.wal.flush()
        db.engine.checkpoint()  # the uncommitted tuple reaches disk
        db.crash()
        db.recover()
        assert db.get("rows", (777,)) is None
        report = Auditor(db).audit()
        assert report.ok, report.summary()

    def test_repeated_crash_cycles(self, tmp_path, mode):
        db = make_db(tmp_path, mode)
        for cycle in range(4):
            for k in range(cycle * 5, cycle * 5 + 5):
                put(db, k, cycle)
            db.crash()
            db.recover()
        assert len(db.scan("rows")) == 20
        counts = db.clog.record_counts()
        assert counts.get("START_RECOVERY", 0) == 4
        report = Auditor(db).audit()
        assert report.ok, report.summary()

    def test_crash_between_audits(self, tmp_path, mode):
        db = make_db(tmp_path, mode)
        auditor = Auditor(db)
        for k in range(8):
            put(db, k, 1)
        assert auditor.audit().ok
        for k in range(8):
            put(db, k, 2)
        db.crash()
        db.recover()
        report = auditor.audit()
        assert report.ok, report.summary()
        assert db.epoch == 3

    def test_reads_after_recovery_verify(self, tmp_path, mode):
        # post-crash reads must verify against the PAGE_RESET-re-based
        # replay (hash-on-read), and data must be intact in both modes
        db = make_db(tmp_path, mode)
        for k in range(30):
            put(db, k, k)
        db.crash()
        db.recover()
        db.engine.buffer.drop_all()
        for k in range(0, 30, 3):
            assert db.get("rows", (k,))["v"] == k  # disk reads: READs log
        report = Auditor(db).audit()
        assert report.ok, report.summary()


class TestCrossProcessCrash:
    def test_reopen_after_crash_in_new_process(self, tmp_path):
        # simulate a process crash by abandoning the instance entirely
        clock = SimulatedClock()
        db = CompliantDB.create(
            tmp_path / "db", clock=clock,
            config=DBConfig(engine=EngineConfig(page_size=1024,
                                                buffer_pages=16),
                            compliance=ComplianceConfig(
                                mode=ComplianceMode.HASH_ON_READ)))
        db.create_relation(ROWS)
        for k in range(12):
            with db.transaction() as txn:
                db.insert(txn, "rows", {"k": k, "v": k})
        db.engine.wal.flush()
        # no close(): the process "dies"; file handles leak like a crash
        reopened = CompliantDB.open(tmp_path / "db", clock)
        report = reopened.recover()
        assert len(report.committed) >= 12
        assert len(reopened.scan("rows")) == 12
        audit = Auditor(reopened).audit()
        assert audit.ok, audit.summary()

    def test_page_resets_emitted_for_hash_on_read_only(self, tmp_path):
        # hash-page-on-read re-bases exactly the pages a record named
        # after the last durable CHECKPOINT marker; log-consistent mode
        # never re-bases
        def resets(db):
            return [r.pgno for _, r in db.clog.records()
                    if r.rtype == CLogType.PAGE_RESET]

        for mode in (ComplianceMode.LOG_CONSISTENT,
                     ComplianceMode.HASH_ON_READ):
            db = make_db(tmp_path / mode.value, mode)
            put(db, 1, 1)
            db.engine.checkpoint()
            db.crash()
            db.recover()
            assert resets(db) == []  # straight after a checkpoint
            put(db, 2, 2)
            leaf = db.engine.relation("rows").root_pgno
            db.engine.buffer.flush_all()  # the leaf is written, unmarked
            db.crash()
            db.recover()
            if mode is ComplianceMode.HASH_ON_READ:
                assert resets(db) == [leaf]
            else:
                assert resets(db) == []
            assert db.get("rows", (2,)) == {"k": 2, "v": 2}
            report = Auditor(db).audit()
            assert report.ok, report.summary()

    def test_begin_recovery_reads_only_pages_to_rebase(self, tmp_path):
        # log-consistent recovery re-bases nothing; hash-page-on-read
        # recovery straight after a checkpoint has nothing to re-base
        for mode, checkpoint in [(ComplianceMode.LOG_CONSISTENT, False),
                                 (ComplianceMode.HASH_ON_READ, True)]:
            db = make_db(tmp_path / mode.value, mode)
            for k in range(40):
                put(db, k, k)
            if checkpoint:
                db.checkpoint()
            db.crash()
            reads = db.obs.registry.value("pager_reads_total")
            db.plugin.begin_recovery()
            assert db.obs.registry.value("pager_reads_total") == reads

    def test_recovery_outcomes_fill_missing_stamp(self, tmp_path):
        # crash between the WAL COMMIT flush and the STAMP_TRANS append:
        # recovery must supply the missing record exactly once
        db = make_db(tmp_path)
        put(db, 1, 1)
        txn = db.begin()
        db.insert(txn, "rows", {"k": 2, "v": 2})
        # commit at the WAL level only: bypass the plugin's on_commit
        from repro.wal import WalRecord, WalRecordType
        commit_time = db.clock.tick()
        db.engine.wal.append(WalRecord(WalRecordType.COMMIT,
                                       txn_id=txn.txn_id,
                                       commit_time=commit_time))
        db.engine.wal.flush()
        db.crash()
        db.recover()
        stamps = [r for _, r in db.clog.records()
                  if r.rtype == CLogType.STAMP_TRANS and
                  r.txn_id == txn.txn_id]
        assert len(stamps) == 1
        assert stamps[0].commit_time == commit_time
        assert db.get("rows", (2,))["v"] == 2
        report = Auditor(db).audit()
        assert report.ok, report.summary()
