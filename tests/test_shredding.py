"""Tests for Expiry policies, vacuuming, and shredding audits (§VIII)."""

import pytest

from repro import (Auditor, ComplianceConfig, ComplianceMode, CompliantDB,
                   DBConfig, EngineConfig, Field, FieldType, Schema,
                   SimulatedClock, minutes)
from repro.common.errors import ShreddingError

PII = Schema("pii", [
    Field("person_id", FieldType.INT),
    Field("ssn", FieldType.STR),
], key_fields=["person_id"])

RETENTION = minutes(30)


def make_db(tmp_path, mode=ComplianceMode.LOG_CONSISTENT,
            migration=False):
    clock = SimulatedClock()
    config = DBConfig(
        engine=EngineConfig(page_size=1024, buffer_pages=32),
        compliance=ComplianceConfig(mode=mode,
                                    regret_interval=minutes(5),
                                    worm_migration=migration,
                                    split_threshold=0.6))
    db = CompliantDB.create(tmp_path / "db", config, clock=clock)
    db.create_relation(PII)
    db.set_retention("pii", RETENTION)
    return db


def add_people(db, start, count):
    for i in range(start, start + count):
        with db.transaction() as txn:
            db.insert(txn, "pii", {"person_id": i, "ssn": f"s-{i}"})


class TestExpiryRelation:
    def test_retention_recorded_and_versioned(self, tmp_path):
        db = make_db(tmp_path)
        assert db.shredder.retention_of("pii") == RETENTION
        before = db.clock.now()
        db.pass_time(minutes(10))
        db.set_retention("pii", minutes(60))
        assert db.shredder.retention_of("pii") == minutes(60)
        assert db.shredder.retention_of("pii", at=before) == RETENTION

    def test_retention_requires_relation(self, tmp_path):
        db = make_db(tmp_path)
        from repro.common.errors import RelationNotFoundError
        with pytest.raises(RelationNotFoundError):
            db.set_retention("ghost", minutes(5))

    def test_invalid_retention_rejected(self, tmp_path):
        db = make_db(tmp_path)
        with pytest.raises(ShreddingError):
            db.set_retention("pii", 0)


class TestVacuum:
    def test_nothing_expires_early(self, tmp_path):
        db = make_db(tmp_path)
        add_people(db, 0, 10)
        report = db.vacuum()
        assert report.shredded_live == 0

    def test_active_records_survive_expiry(self, tmp_path):
        # the newest live version stays even when old enough
        db = make_db(tmp_path)
        add_people(db, 0, 10)
        db.pass_time(RETENTION + minutes(5))
        report = db.vacuum()
        assert report.shredded_live == 0
        assert db.get("pii", (3,)) is not None

    def test_superseded_versions_are_shredded(self, tmp_path):
        db = make_db(tmp_path)
        add_people(db, 0, 10)
        db.pass_time(minutes(1))
        for i in range(10):
            with db.transaction() as txn:
                db.update(txn, "pii", {"person_id": i, "ssn": "redacted"})
        db.pass_time(RETENTION + minutes(5))
        report = db.vacuum()
        assert report.shredded_live == 10  # the 10 original versions
        history = db.versions("pii", (4,))
        assert len(history) == 1
        assert history[0].row["ssn"] == "redacted"

    def test_dead_tuples_fully_shredded(self, tmp_path):
        db = make_db(tmp_path)
        add_people(db, 0, 5)
        with db.transaction() as txn:
            db.delete(txn, "pii", (2,))
        db.pass_time(RETENTION + minutes(5))
        report = db.vacuum()
        # person 2: payload version + end-of-life marker both eligible
        assert report.shredded_live == 2
        assert db.versions("pii", (2,)) == []

    def test_shredded_records_on_log(self, tmp_path):
        db = make_db(tmp_path)
        add_people(db, 0, 3)
        with db.transaction() as txn:
            db.delete(txn, "pii", (0,))
        db.pass_time(RETENTION + minutes(5))
        db.vacuum()
        counts = db.clog.record_counts()
        assert counts.get("SHREDDED", 0) == 2

    @pytest.mark.parametrize("mode", [ComplianceMode.LOG_CONSISTENT,
                                      ComplianceMode.HASH_ON_READ])
    def test_audit_passes_after_legal_shredding(self, tmp_path, mode):
        db = make_db(tmp_path, mode=mode)
        add_people(db, 0, 20)
        db.pass_time(minutes(1))
        for i in range(20):
            with db.transaction() as txn:
                db.update(txn, "pii", {"person_id": i, "ssn": "x"})
        db.pass_time(RETENTION + minutes(5))
        report = db.vacuum()
        assert report.shredded_live == 20
        audit = Auditor(db).audit()
        assert audit.ok, audit.summary()
        assert audit.shredded_verified == 20

    def test_vacuum_is_idempotent(self, tmp_path):
        db = make_db(tmp_path)
        add_people(db, 0, 5)
        db.pass_time(minutes(1))
        for i in range(5):
            with db.transaction() as txn:
                db.update(txn, "pii", {"person_id": i, "ssn": "x"})
        db.pass_time(RETENTION + minutes(5))
        assert db.vacuum().shredded_live == 5
        assert db.vacuum().shredded_live == 0
        assert Auditor(db).audit().ok

    def test_evidence_gone_after_next_audit(self, tmp_path):
        db = make_db(tmp_path)
        add_people(db, 0, 5)
        db.pass_time(minutes(1))
        with db.transaction() as txn:
            db.update(txn, "pii", {"person_id": 1, "ssn": "x"})
        db.pass_time(RETENTION + minutes(5))
        db.vacuum()
        old_log = db.clog.name
        audit = Auditor(db).audit()
        assert audit.ok
        # the epoch containing the SHREDDED evidence is sealed; once its
        # retention lapses it can be deleted and the tuple truly gone
        assert db.worm.meta(old_log).sealed

    def test_shredding_incomplete_fails_audit(self, tmp_path):
        # a SHREDDED record whose tuple is still present => audit failure
        from repro.core.records import CLogRecord, CLogType
        db = make_db(tmp_path)
        add_people(db, 0, 5)
        db.pass_time(RETENTION + minutes(5))
        info = db.engine.relation("pii")
        from repro.common.codec import encode_key
        versions = info.tree.versions(encode_key((1,)))
        db.engine.run_stamper()
        versions = info.tree.versions(encode_key((1,)))
        victim = versions[0]
        db.plugin.log_shredded(victim, 0, db.clock.now())
        audit = Auditor(db).audit()
        assert not audit.ok
        assert "shredded-still-present" in audit.codes()


class TestVacuumCrash:
    def test_crash_mid_vacuum_finished_by_recovery(self, tmp_path):
        db = make_db(tmp_path)
        add_people(db, 0, 8)
        db.pass_time(minutes(1))
        for i in range(8):
            with db.transaction() as txn:
                db.update(txn, "pii", {"person_id": i, "ssn": "x"})
        db.engine.run_stamper()
        db.engine.checkpoint()
        db.pass_time(RETENTION + minutes(5))
        # simulate the crash window: SHREDDED records reach WORM but the
        # physical erasure is lost with the buffer cache
        info = db.engine.relation("pii")
        from repro.common.codec import encode_key
        victims = [info.tree.versions(encode_key((i,)))[0]
                   for i in range(8)]
        for victim in victims:
            db.plugin.log_shredded(victim, 0, db.clock.now())
        db.plugin.barrier()  # the vacuum's phase-1 durability barrier
        db.crash()
        db.recover()  # finish_pending completes the vacuum
        for i in range(8):
            assert len(db.versions("pii", (i,))) == 1
        audit = Auditor(db).audit()
        assert audit.ok, audit.summary()


class TestWormShredding:
    def test_vacuum_reaches_worm_historical_pages(self, tmp_path):
        db = make_db(tmp_path, migration=True)
        add_people(db, 0, 4)
        # hammer one tuple so history migrates to WORM
        for round_no in range(120):
            db.clock.advance(1000)
            with db.transaction() as txn:
                db.update(txn, "pii", {"person_id": 1,
                                       "ssn": f"v{round_no}"})
            db.engine.run_stamper()
        assert db.engine.histdir.page_count() > 0
        db.pass_time(RETENTION + minutes(10))
        report = db.vacuum()
        assert report.shredded_worm > 0
        # history on WORM is gone from temporal queries
        history = db.versions("pii", (1,))
        assert len(history) == 1
        audit = Auditor(db).audit()
        assert audit.ok, audit.summary()

    @pytest.mark.parametrize("mode", [ComplianceMode.LOG_CONSISTENT,
                                      ComplianceMode.HASH_ON_READ])
    def test_remigration_record_goes_through_the_append_path(
            self, tmp_path, mode):
        # a vacuum that re-migrates a WORM historical page logs a MIGRATE
        # record; it must be counted like every other record on L
        db = make_db(tmp_path, mode=mode, migration=True)
        add_people(db, 0, 4)

        def hammer(rounds, tag):
            for round_no in range(rounds):
                db.clock.advance(1000)
                with db.transaction() as txn:
                    db.update(txn, "pii", {"person_id": 1,
                                           "ssn": f"{tag}{round_no}"})
                db.engine.run_stamper()

        def tally():
            frames = {}
            for _, record in db.clog.records():
                name = record.rtype.name
                frames[name] = frames.get(name, 0) + 1
            return frames

        hammer(120, "a")
        db.pass_time(RETENTION + minutes(10))
        hammer(60, "b")
        registry = db.obs.registry
        frames_before = tally()
        appends_before = registry.value("clog_buffered_appends_total")
        typed_before = registry.labelled_values("clog_records_total",
                                                "type")
        report = db.vacuum()
        assert report.pages_remigrated > 0
        frames_after = tally()
        new_frames = {name: count - frames_before.get(name, 0)
                      for name, count in frames_after.items()}
        assert new_frames["MIGRATE"] > 0
        assert registry.value("clog_buffered_appends_total") - \
            appends_before == sum(new_frames.values())
        typed_after = registry.labelled_values("clog_records_total", "type")
        for name, count in new_frames.items():
            assert typed_after[name] - typed_before.get(name, 0) == count
        audit = Auditor(db).audit()
        assert audit.ok, audit.summary()

