"""Property: crash recovery re-bases only the pages L can disagree with.

Hypothesis drives random traces — inserts, updates, deletes, reads,
aborts, checkpoints and regret-interval maintenance — on tiny pages and
a tiny cache, so that splits and steals happen, and crashes at a random
operation boundary (sometimes again straight after recovery).  After
each recovery the buffer is dropped and every page of every relation is
read, so each one logs a READ_HASH against the state the auditor
replays.  After any such trace:

* the audit is clean: a page recovery did not re-base still equals the
  state L implies;
* in hash-page-on-read mode, a recovery's PAGE_RESET records name only
  pages that a page-state record named after the last durable
  CHECKPOINT marker (or since the epoch began);
* log-consistent recovery appends no PAGE_RESET at all.
"""

from typing import List, Set

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (Auditor, ComplianceConfig, ComplianceMode, CompliantDB,
                   DBConfig, EngineConfig, Field, FieldType, Schema,
                   SimulatedClock, minutes)
from repro.core.records import PAGE_STATE_TYPES, CLogType

ITEMS = Schema("items", [
    Field("k", FieldType.INT),
    Field("v", FieldType.INT),
    Field("pad", FieldType.STR),
], key_fields=["k"])

KEYS = st.integers(min_value=0, max_value=24)
VALUES = st.integers(min_value=0, max_value=1000)

OPS = st.one_of(
    st.tuples(st.just("put"), KEYS, VALUES),
    st.tuples(st.just("delete"), KEYS, st.just(0)),
    st.tuples(st.just("read"), KEYS, st.just(0)),
    st.tuples(st.just("abort_put"), KEYS, VALUES),
    st.tuples(st.just("checkpoint"), st.just(0), st.just(0)),
    st.tuples(st.just("maintenance"), st.just(0), st.just(0)),
)


def make_db(tmp_path, mode):
    db = CompliantDB.create(
        tmp_path / "db", clock=SimulatedClock(),
        config=DBConfig(engine=EngineConfig(page_size=512,
                                            buffer_pages=8),
                        compliance=ComplianceConfig(
                            mode=mode, regret_interval=minutes(5))))
    db.create_relation(ITEMS)
    return db


def row(key, value):
    return {"k": key, "v": value, "pad": "x" * (value % 60)}


def apply(db, model, op, key, value):
    if op == "put":
        with db.transaction() as txn:
            if key in model:
                db.update(txn, "items", row(key, value))
            else:
                db.insert(txn, "items", row(key, value))
        model[key] = value
    elif op == "delete":
        if key in model:
            with db.transaction() as txn:
                db.delete(txn, "items", (key,))
            del model[key]
    elif op == "read":
        got = db.get("items", (key,))
        assert (got["v"] if got else None) == model.get(key)
    elif op == "abort_put":
        txn = db.begin()
        if key in model:
            db.update(txn, "items", row(key, value))
        else:
            db.insert(txn, "items", row(key, value))
        db.abort(txn)
    elif op == "checkpoint":
        db.checkpoint()
    else:
        db.clock.advance(minutes(6))
        db.maintenance()


def unsettled_pages(db) -> Set[int]:
    """Pages named by a page-state record after L's last CHECKPOINT,
    from a full decode of the durable log."""
    named: Set[int] = set()
    for _, record in db.clog.records():
        if record.rtype == CLogType.CHECKPOINT:
            named.clear()
        elif record.rtype == CLogType.PAGE_SPLIT:
            named.update((record.pgno, record.left_pgno, record.right_pgno,
                          record.parent_pgno))
        elif record.rtype in PAGE_STATE_TYPES:
            named.add(record.pgno)
    return named - {-1}


def crash_and_recover(db) -> None:
    db.crash()
    expected = unsettled_pages(db)
    before = len(list(db.clog.records()))
    db.recover()
    resets: List[int] = [record.pgno for _, record in
                         list(db.clog.records())[before:]
                         if record.rtype == CLogType.PAGE_RESET]
    if db.mode is ComplianceMode.HASH_ON_READ:
        assert resets == sorted(resets)
        assert set(resets) <= expected, (resets, expected)
    else:
        assert resets == []


def read_every_page(db) -> None:
    """Cold-read every page of every relation: each logs a READ_HASH."""
    engine = db.engine
    engine.buffer.flush_all()  # write-back, not a crash: nothing is lost
    engine.buffer.drop_all()
    trees = [engine._catalog_tree] + [engine.relation(name).tree
                                      for name in engine.relation_names()]
    for tree in trees:
        tree.all_pgnos()


@pytest.mark.parametrize("mode", [ComplianceMode.LOG_CONSISTENT,
                                  ComplianceMode.HASH_ON_READ])
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trace=st.lists(OPS, min_size=1, max_size=50),
       cut=st.integers(min_value=0, max_value=50),
       twice=st.booleans())
def test_recovery_rebases_only_unsettled_pages(tmp_path_factory, mode,
                                               trace, cut, twice):
    db = make_db(tmp_path_factory.mktemp("recovery"), mode)
    model = {}
    for op, key, value in trace[:cut]:
        apply(db, model, op, key, value)
    crash_and_recover(db)
    if twice:
        crash_and_recover(db)
    read_every_page(db)
    for op, key, value in trace[cut:]:
        apply(db, model, op, key, value)
    assert {k[0]: r["v"] for k, r in db.scan("items")} == model
    read_every_page(db)
    report = Auditor(db).audit()
    assert report.ok, report.summary()
