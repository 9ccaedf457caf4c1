"""Tests for the repro-admin command-line tool."""

import pytest

from repro import (ComplianceMode, CompliantDB, DBConfig, EngineConfig,
                   ComplianceConfig, Field, FieldType, Schema,
                   SimulatedClock, minutes)
from repro.core import Adversary
from repro.tools.admin import main

LEDGER = Schema("ledger", [
    Field("entry_id", FieldType.INT),
    Field("note", FieldType.STR),
], key_fields=["entry_id"])


@pytest.fixture
def db_path(tmp_path):
    db = CompliantDB.create(
        tmp_path / "db", clock=SimulatedClock(),
        config=DBConfig(engine=EngineConfig(page_size=1024,
                                            buffer_pages=16),
                        compliance=ComplianceConfig(
                            mode=ComplianceMode.LOG_CONSISTENT,
                            regret_interval=minutes(5))))
    db.create_relation(LEDGER)
    for i in range(5):
        with db.transaction() as txn:
            db.insert(txn, "ledger", {"entry_id": i, "note": f"n{i}"})
    with db.transaction() as txn:
        db.update(txn, "ledger", {"entry_id": 2, "note": "edited"})
    db.place_hold("ledger", key=(1,), case_ref="CASE-1")
    db.close()
    return str(tmp_path / "db")


class TestAdminCLI:
    def test_info(self, db_path, capsys):
        assert main(["info", db_path]) == 0
        out = capsys.readouterr().out
        assert "mode:          log-consistent" in out
        assert "ledger: 5 live row(s)" in out

    def test_audit_clean(self, db_path, capsys):
        assert main(["audit", db_path]) == 0
        out = capsys.readouterr().out
        assert "COMPLIANT" in out

    def test_audit_dry_run(self, db_path, capsys):
        assert main(["audit", db_path, "--no-rotate"]) == 0
        assert main(["audit", db_path, "--no-rotate"]) == 0

    def test_audit_has_no_resume_flag(self, db_path, capsys):
        # every audit is one fresh pass; there is no progress to resume
        with pytest.raises(SystemExit) as exit_info:
            main(["audit", db_path, "--resume"])
        assert exit_info.value.code == 2
        assert "--resume" in capsys.readouterr().err

    def test_audit_detects_tampering(self, db_path, capsys):
        clock = SimulatedClock()
        db = CompliantDB.open(db_path, clock)
        db.recover()
        mala = Adversary(db)
        mala.settle()
        mala.shred_tuple("ledger", (3,))
        db.close()
        assert main(["audit", db_path, "--no-rotate"]) == 1
        out = capsys.readouterr().out
        assert "TAMPERING" in out

    def test_forensics_localises(self, db_path, capsys):
        clock = SimulatedClock()
        db = CompliantDB.open(db_path, clock)
        db.recover()
        mala = Adversary(db)
        mala.settle()
        mala.shred_tuple("ledger", (3,))
        db.close()
        assert main(["forensics", db_path]) == 1
        out = capsys.readouterr().out
        assert "missing" in out

    def test_history(self, db_path, capsys):
        assert main(["history", db_path, "ledger", "2"]) == 0
        out = capsys.readouterr().out
        assert "edited" in out
        assert out.count("@") >= 2  # two versions

    def test_history_missing_key(self, db_path, capsys):
        assert main(["history", db_path, "ledger", "404"]) == 0
        assert "no recorded versions" in capsys.readouterr().out

    def test_holds(self, db_path, capsys):
        assert main(["holds", db_path]) == 0
        out = capsys.readouterr().out
        assert "CASE-1" in out
        assert "ACTIVE" in out

    def test_vacuum(self, db_path, capsys):
        assert main(["vacuum", db_path]) == 0
        assert "shredded 0" in capsys.readouterr().out
