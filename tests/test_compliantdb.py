"""Integration tests: CompliantDB lifecycle and clean audits."""

import json

import pytest

from repro import (Auditor, ComplianceConfig, ComplianceMode, CompliantDB,
                   DBConfig, EngineConfig, Field, FieldType, Schema,
                   SimulatedClock, minutes)
from repro.common.errors import AuditError, ConfigError

LEDGER = Schema("ledger", [
    Field("entry_id", FieldType.INT),
    Field("account", FieldType.STR),
    Field("amount", FieldType.INT),
], key_fields=["entry_id"])


def make_db(tmp_path, mode=ComplianceMode.LOG_CONSISTENT, **compliance):
    clock = SimulatedClock()
    config = DBConfig(engine=EngineConfig(page_size=1024, buffer_pages=32),
                      compliance=ComplianceConfig(mode=mode,
                                                  **compliance))
    db = CompliantDB.create(tmp_path / "db", config, clock=clock)
    db.create_relation(LEDGER)
    return db


def add_entries(db, start, count, account="ops"):
    for i in range(start, start + count):
        with db.transaction() as txn:
            db.insert(txn, "ledger",
                      {"entry_id": i, "account": account, "amount": i * 10})


class TestLifecycle:
    def test_create_and_use(self, tmp_path):
        db = make_db(tmp_path)
        add_entries(db, 0, 20)
        assert db.get("ledger", (7,))["amount"] == 70
        assert len(db.scan("ledger")) == 20

    def test_regular_mode_has_no_plugin(self, tmp_path):
        db = make_db(tmp_path, mode=ComplianceMode.REGULAR)
        add_entries(db, 0, 5)
        assert db.plugin is None
        with pytest.raises(AuditError):
            Auditor(db).audit()

    def test_compliance_log_receives_records(self, tmp_path):
        db = make_db(tmp_path)
        add_entries(db, 0, 10)
        db.engine.checkpoint()
        counts = db.clog.record_counts()
        assert counts.get("NEW_TUPLE", 0) >= 10
        assert counts.get("STAMP_TRANS", 0) >= 10

    def test_new_tuple_reaches_worm_before_data_page(self, tmp_path):
        # the write-ordering invariant the recovery protocol depends on
        db = make_db(tmp_path)
        sizes = []
        original = db.worm.append

        def tracking_append(name, data, durable=True):
            sizes.append(name)
            return original(name, data, durable=durable)

        db.worm.append = tracking_append
        add_entries(db, 0, 5)
        db.engine.checkpoint()
        assert any(name.startswith("clog/") for name in sizes)

    def test_reopen_clean_shutdown(self, tmp_path):
        db = make_db(tmp_path)
        add_entries(db, 0, 10)
        clock = db.clock
        db.close()
        reopened = CompliantDB.open(tmp_path / "db", clock)
        report = reopened.recover()
        assert report.losers == set()
        assert reopened.get("ledger", (3,))["amount"] == 30
        assert reopened.mode is ComplianceMode.LOG_CONSISTENT
        # clean shutdown: no START_RECOVERY noise on L
        counts = reopened.clog.record_counts()
        assert counts.get("START_RECOVERY", 0) == 0
        reopened.close()

    def test_reopen_ignores_marker_keys_this_build_lacks(self, tmp_path):
        # every section of mode.json, not just ``engine``: a marker
        # written by a build with more knobs (the audit_* shape knobs
        # every pre-PR-15 marker carries) must still open
        db = make_db(tmp_path, regret_interval=minutes(7))
        add_entries(db, 0, 3)
        clock = db.clock
        db.close()
        marker_path = tmp_path / "db" / "mode.json"
        marker = json.loads(marker_path.read_text())
        marker["compliance"].update(audit_chunk_pages=512,
                                    audit_log_slices=0,
                                    audit_checkpoint_every=8,
                                    knob_from_the_future=1)
        marker["engine"]["knob_from_the_future"] = 1
        marker["obs"]["knob_from_the_future"] = 1
        marker_path.write_text(json.dumps(marker))
        reopened = CompliantDB.open(tmp_path / "db", clock)
        assert reopened.config.compliance.regret_interval == minutes(7)
        assert reopened.config.engine.page_size == 1024
        assert reopened.get("ledger", (2,))["amount"] == 20
        assert Auditor(reopened).audit().ok
        reopened.close()


class TestCleanAudit:
    @pytest.mark.parametrize("mode", [ComplianceMode.LOG_CONSISTENT,
                                      ComplianceMode.HASH_ON_READ])
    def test_audit_passes_after_normal_activity(self, tmp_path, mode):
        db = make_db(tmp_path, mode=mode)
        add_entries(db, 0, 30)
        for i in range(0, 30, 3):
            with db.transaction() as txn:
                db.update(txn, "ledger", {"entry_id": i, "account": "ops",
                                          "amount": 1})
        with db.transaction() as txn:
            db.delete(txn, "ledger", (5,))
        report = Auditor(db).audit()
        assert report.ok, report.summary()
        assert report.new_epoch == 2
        assert report.final_tuples > 30

    def test_audit_passes_with_aborts(self, tmp_path):
        db = make_db(tmp_path)
        add_entries(db, 0, 10)
        txn = db.begin()
        db.insert(txn, "ledger",
                  {"entry_id": 99, "account": "x", "amount": 1})
        db.engine.checkpoint()  # steal: uncommitted tuple reaches disk
        db.abort(txn)
        report = Auditor(db).audit()
        assert report.ok, report.summary()
        assert db.get("ledger", (99,)) is None

    def test_audit_passes_with_aborts_hash_on_read(self, tmp_path):
        db = make_db(tmp_path, mode=ComplianceMode.HASH_ON_READ)
        add_entries(db, 0, 10)
        txn = db.begin()
        db.insert(txn, "ledger",
                  {"entry_id": 99, "account": "x", "amount": 1})
        db.engine.checkpoint()
        db.abort(txn)
        db.engine.checkpoint()  # flush the undo: UNDO record on L
        counts = db.clog.record_counts()
        assert counts.get("ABORT", 0) == 1
        assert counts.get("UNDO", 0) >= 1
        report = Auditor(db).audit()
        assert report.ok, report.summary()

    def test_multiple_epochs(self, tmp_path):
        db = make_db(tmp_path)
        auditor = Auditor(db)
        for round_no in range(3):
            add_entries(db, round_no * 10, 10)
            report = auditor.audit()
            assert report.ok, report.summary()
        assert db.epoch == 4
        assert len(db.scan("ledger")) == 30

    def test_dry_run_does_not_rotate(self, tmp_path):
        db = make_db(tmp_path)
        add_entries(db, 0, 5)
        report = Auditor(db).audit(rotate=False)
        assert report.ok
        assert report.new_epoch is None
        assert db.epoch == 1
        # a later real audit still passes
        assert Auditor(db).audit().ok

    def test_audit_after_heavy_splits(self, tmp_path):
        db = make_db(tmp_path, mode=ComplianceMode.HASH_ON_READ)
        add_entries(db, 0, 300)
        report = Auditor(db).audit()
        assert report.ok, report.summary()
        assert report.read_hashes_checked >= 0

    def test_audit_with_small_cache_reads(self, tmp_path):
        # a small cache forces evictions and re-reads: READ records flow
        clock = SimulatedClock()
        config = DBConfig(engine=EngineConfig(page_size=1024,
                                              buffer_pages=12),
                          compliance=ComplianceConfig(
                              mode=ComplianceMode.HASH_ON_READ))
        db = CompliantDB.create(tmp_path / "db", config, clock=clock)
        db.create_relation(LEDGER)
        add_entries(db, 0, 200)
        for i in range(0, 200, 7):
            assert db.get("ledger", (i,))["amount"] == i * 10
        counts = db.clog.record_counts()
        assert counts.get("READ_HASH", 0) > 0
        report = Auditor(db).audit()
        assert report.ok, report.summary()

    def test_maintenance_produces_witness_and_heartbeat(self, tmp_path):
        db = make_db(tmp_path, regret_interval=minutes(5))
        add_entries(db, 0, 3)
        db.pass_time(minutes(20))
        witnesses = db.worm.list_files("witness/")
        assert len(witnesses) >= 3
        counts = db.clog.record_counts()
        assert counts.get("STAMP_TRANS", 0) > 3  # heartbeats present
        report = Auditor(db).audit()
        assert report.ok, report.summary()

    def test_audit_detects_nothing_on_empty_db(self, tmp_path):
        db = make_db(tmp_path)
        report = Auditor(db).audit()
        assert report.ok, report.summary()
