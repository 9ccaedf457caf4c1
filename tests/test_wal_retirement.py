"""A quiesced checkpoint retires the r/w WAL; recovery reads only the rest.

``Engine.checkpoint`` drops the durable WAL when no transaction is
active or prepared and the manager is not halted: every committed write
is stamped, every page is on disk, every outcome is on L and every
projection is on the WORM mirror.  These tests pin both sides of that
rule: recovery work is bounded by the last checkpoint rather than by
history, and the head stays whenever recovery could still need it (a
live loser, a prepared transaction, a halted manager; the halted case
lives in ``test_durability_fixes.py``).  Recovery also reads L once,
decoding only the records its epoch state needs.
"""

import pytest

from repro import (Auditor, ComplianceConfig, ComplianceMode, CompliantDB,
                   DBConfig, EngineConfig, Field, FieldType, Schema,
                   SimulatedClock, minutes)
from repro.common.errors import PageFormatError
from repro.core import CLogType
from repro.shard.journal import DecisionJournal
from repro.storage.page import LEAF, Page

ROWS = Schema("rows", [
    Field("k", FieldType.INT),
    Field("v", FieldType.INT),
], key_fields=["k"])

TAIL = Schema("tail", [
    Field("k", FieldType.INT),
    Field("v", FieldType.INT),
], key_fields=["k"])

MODES = [ComplianceMode.LOG_CONSISTENT, ComplianceMode.HASH_ON_READ]


def make_db(path, mode, buffer_pages=1024):
    db = CompliantDB.create(
        path, clock=SimulatedClock(),
        config=DBConfig(engine=EngineConfig(page_size=1024,
                                            buffer_pages=buffer_pages),
                        compliance=ComplianceConfig(
                            mode=mode, regret_interval=minutes(5))))
    db.create_relation(ROWS)
    db.create_relation(TAIL)
    db.checkpoint()
    return db


def value(db, name):
    return db.obs.registry.value(name)


def audit_clean(db):
    report = Auditor(db).audit(rotate=False)
    assert report.ok, report.summary()


def on_disk(db, txn_id):
    """Versions written by ``txn_id`` that are on the data file."""
    pager = db.engine.pager
    found = []
    for pgno in range(1, pager.page_count):
        try:
            page = Page.from_bytes(pager.read_raw(pgno))
        except PageFormatError:
            continue
        if page.ptype == LEAF:
            found.extend(v for v in page.entries
                         if not v.stamped and v.start == txn_id)
    return found


@pytest.mark.parametrize("mode", MODES)
def test_wal_growth_between_quiesced_checkpoints_is_bytes_written(
        tmp_path, mode):
    db = make_db(tmp_path / "db", mode)
    path = db.engine.wal.path
    size, written = path.stat().st_size, value(db, "wal_bytes_written_total")
    for k in range(40):
        with db.transaction() as txn:
            db.insert(txn, "rows", {"k": k, "v": k})
    txn = db.begin()
    db.insert(txn, "rows", {"k": 1000, "v": 0})
    db.abort(txn)
    growth = path.stat().st_size - size
    assert growth > 0
    assert value(db, "wal_bytes_written_total") - written == growth
    db.checkpoint()
    # the quiesced checkpoint dropped the log and wrote one CHECKPOINT
    # record, the same bytes the previous one left behind
    assert path.stat().st_size == size
    assert value(db, "wal_bytes_written_total") - written == growth + size


def _recover_after(tmp_path, mode, history, tail=20):
    db = make_db(tmp_path / f"db-{history}", mode)
    for k in range(history):
        with db.transaction() as txn:
            db.insert(txn, "rows", {"k": k, "v": k})
    db.checkpoint()
    for k in range(tail):
        with db.transaction() as txn:
            db.insert(txn, "tail", {"k": k, "v": k})
    db.crash()
    scanned = value(db, "recovery_wal_bytes_scanned_total")
    report = db.recover()
    scanned = value(db, "recovery_wal_bytes_scanned_total") - scanned
    assert db.get("rows", (history - 1,)) == {"k": history - 1,
                                              "v": history - 1}
    assert len(db.scan("tail")) == tail
    audit_clean(db)
    db.close()
    return scanned, report


@pytest.mark.parametrize("mode", MODES)
def test_recovery_is_bounded_by_the_checkpoint_not_history(tmp_path, mode):
    short_scan, short = _recover_after(tmp_path, mode, 500)
    long_scan, long = _recover_after(tmp_path, mode, 4000)
    assert short_scan > 0
    assert long_scan == short_scan
    assert long.redone == short.redone == 20
    assert len(long.committed) == len(short.committed) == 20


@pytest.mark.parametrize("mode", MODES)
def test_active_loser_across_checkpoint_is_undone(tmp_path, mode):
    db = make_db(tmp_path / "db", mode, buffer_pages=8)
    loser = db.begin()
    db.insert(loser, "rows", {"k": -1, "v": -1})
    for batch in range(20):
        with db.transaction() as txn:
            for i in range(10):
                db.insert(txn, "tail", {"k": batch * 10 + i, "v": i})
    assert on_disk(db, loser.txn_id)  # the tiny cache stole its page
    db.checkpoint()  # not quiesced: the head with its INSERT stays
    db.crash()
    report = db.recover()
    assert loser.txn_id in report.losers
    assert report.undone == 1
    assert db.get("rows", (-1,)) is None
    assert not on_disk(db, loser.txn_id)
    assert len(db.scan("tail")) == 200
    audit_clean(db)


@pytest.mark.parametrize("mode", MODES)
def test_prepared_before_checkpoint_decided_after(tmp_path, mode):
    db = make_db(tmp_path / "db", mode)
    txn = db.begin()
    db.insert(txn, "rows", {"k": 7, "v": 7})
    db.prepare(txn, "g-7")
    db.checkpoint()  # a prepared transaction keeps the head
    db.commit(txn)
    db.crash()
    report = db.recover()
    assert txn.txn_id in report.committed
    assert db.get("rows", (7,)) == {"k": 7, "v": 7}
    audit_clean(db)


@pytest.mark.parametrize("mode", MODES)
def test_in_doubt_across_checkpoint_resolves_from_journal(tmp_path, mode):
    db = make_db(tmp_path / "db", mode)
    journal = DecisionJournal(tmp_path / "2pc-journal.jsonl")
    txn = db.begin()
    db.insert(txn, "rows", {"k": 7, "v": 7})
    db.prepare(txn, "g-7")
    db.checkpoint()
    journal.log_commit("g-7")
    db.crash()  # in doubt: prepared, decided only in the journal
    report = db.recover(in_doubt_commits=journal.committed_gids())
    journal.close()
    assert txn.txn_id in report.committed
    assert db.get("rows", (7,)) == {"k": 7, "v": 7}
    audit_clean(db)


@pytest.mark.parametrize("mode", MODES)
def test_epoch_state_equals_a_full_decode_of_L(tmp_path, mode):
    """Recovery's type-peeking read of L keeps exactly what decoding
    every record would: commits (heartbeats excluded), aborts and
    SHREDDED identities."""
    db = make_db(tmp_path / "db", mode, buffer_pages=16)
    db.set_retention("rows", minutes(30))
    for k in range(30):
        with db.transaction() as txn:
            db.insert(txn, "rows", {"k": k, "v": k})
    for k in range(0, 30, 2):
        with db.transaction() as txn:
            db.update(txn, "rows", {"k": k, "v": -k})
    txn = db.begin()
    db.insert(txn, "rows", {"k": 99, "v": 99})
    db.abort(txn)
    db.pass_time(minutes(40))  # heartbeats, then expiry
    assert db.vacuum().shredded_live == 15
    commits, aborted, shredded, heartbeats = {}, set(), [], 0
    for _, record in db.clog.records():
        if record.rtype == CLogType.STAMP_TRANS and record.heartbeat:
            heartbeats += 1
        elif record.rtype == CLogType.STAMP_TRANS:
            commits[record.txn_id] = record.commit_time
        elif record.rtype == CLogType.ABORT:
            aborted.add(record.txn_id)
        elif record.rtype == CLogType.SHREDDED:
            shredded.append((record.relation_id, record.key, record.start))
    assert heartbeats and aborted and len(shredded) == 15
    db.plugin.load_epoch_state()
    assert db.plugin.commit_map == commits
    assert db.plugin.aborted == aborted
    assert db.plugin.shredded == shredded
