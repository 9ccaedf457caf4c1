"""Group-commit buffering: crash ordering, caches, and flush reduction.

The PR-1 batching layer lets compliance-log appends sit in a WORM-side
buffer until an explicit durability barrier.  These tests inject crashes
between the buffered append, the barrier, and the data-page write-back,
and verify the Section IV ordering invariant survives: every reachable
crash state is a legal history (the audit passes), tampering is still
flagged, and the caches really do eliminate redundant hashing work.
"""

import pytest

from repro import (Auditor, ComplianceConfig, ComplianceMode, CompliantDB,
                   DBConfig, EngineConfig, Field, FieldType, Schema,
                   SimulatedClock, minutes)
from repro.core import Adversary
from repro.crypto import HASH_STATS

ROWS = Schema("rows", [
    Field("k", FieldType.INT),
    Field("v", FieldType.INT),
], key_fields=["k"])

MODES = [ComplianceMode.LOG_CONSISTENT, ComplianceMode.HASH_ON_READ]


def make_db(tmp_path, mode=ComplianceMode.HASH_ON_READ, buffer_pages=16):
    db = CompliantDB.create(
        tmp_path / "db", clock=SimulatedClock(),
        config=DBConfig(engine=EngineConfig(page_size=1024,
                                            buffer_pages=buffer_pages),
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


class TestCrashOrdering:
    """Crash injection at each point of the append → barrier → write-back
    chain; the audit must accept every legal history."""

    def test_crash_with_buffered_read_hashes(self, tmp_path):
        # READ_HASH records are the one kind that sits buffered across an
        # API boundary (reads carry no durability obligation of their
        # own).  A crash drops them — and must drop them *atomically with
        # the reads' effects*, which is trivially true: reads have none.
        db = make_db(tmp_path, ComplianceMode.HASH_ON_READ)
        for k in range(12):
            put(db, k, k)
        db.engine.run_stamper()
        db.engine.checkpoint()
        db.engine.buffer.drop_all()
        for k in range(0, 12, 2):
            assert db.get("rows", (k,))["v"] == k
        assert db.clog.pending_bytes() > 0  # READ_HASHes still buffered
        db.crash()
        assert db.clog.pending_bytes() == 0  # the crash ate the buffer
        db.recover()
        report = Auditor(db).audit()
        assert report.ok, report.summary()

    @pytest.mark.parametrize("mode", MODES)
    def test_crash_immediately_after_barrier(self, tmp_path, mode):
        db = make_db(tmp_path, mode)
        for k in range(10):
            put(db, k, k)
        db.plugin.barrier()
        assert db.clog.pending_bytes() == 0
        db.crash()
        db.recover()
        assert len(db.scan("rows")) == 10
        report = Auditor(db).audit()
        assert report.ok, report.summary()

    @pytest.mark.parametrize("mode", MODES)
    def test_crash_right_after_page_writeback(self, tmp_path, mode):
        # the checkpoint writes data pages; each write fires the pending-
        # page barrier first, so the crash arrives with L strictly ahead
        # of the data file — the invariant recovery depends on
        db = make_db(tmp_path, mode)
        for k in range(20):
            put(db, k, k)
        db.engine.checkpoint()
        db.crash()
        db.recover()
        assert len(db.scan("rows")) == 20
        report = Auditor(db).audit()
        assert report.ok, report.summary()

    @pytest.mark.parametrize("mode", MODES)
    def test_crash_with_stolen_uncommitted_page(self, tmp_path, mode):
        # steal an uncommitted tuple onto disk (its NEW_TUPLE record is
        # barriered by the write-back), then crash before the outcome
        db = make_db(tmp_path, mode)
        for k in range(8):
            put(db, k, k)
        loser = db.begin()
        db.insert(loser, "rows", {"k": 404, "v": 4})
        db.engine.wal.flush()
        db.engine.checkpoint()
        db.crash()
        db.recover()
        assert db.get("rows", (404,)) is None
        report = Auditor(db).audit()
        assert report.ok, report.summary()

    @pytest.mark.parametrize("mode", MODES)
    def test_tampering_after_crash_recovery_is_flagged(self, tmp_path,
                                                       mode):
        # an illegal history must still fail the audit with buffering on
        db = make_db(tmp_path, mode)
        for k in range(15):
            put(db, k, k)
        db.crash()
        db.recover()
        mala = Adversary(db)
        mala.settle()
        mala.alter_tuple("rows", (3,), {"k": 3, "v": 10**9})
        db.engine.buffer.drop_all()
        report = Auditor(db).audit()
        assert not report.ok

    @pytest.mark.parametrize("mode", MODES)
    def test_no_pending_records_at_physical_write(self, tmp_path, mode):
        # white-box check of the paper's rule: by the time a data page's
        # bytes go to disk, its compliance records must have left the
        # buffer.  Our probe barrier runs *after* the plugin's, i.e. at
        # the moment of the physical write.
        db = make_db(tmp_path, mode, buffer_pages=12)
        writes = []

        def probe(pgno):
            writes.append((pgno, pgno in db.plugin._pending_pages))

        db.engine.pager.pwrite_barriers.append(probe)
        for k in range(60):
            put(db, k, k)
        db.engine.checkpoint()
        assert writes  # pages actually went to disk
        violations = [pgno for pgno, pending in writes if pending]
        assert violations == []


class TestFlushReduction:
    """Acceptance criterion: >= 2x fewer WORM flush round-trips than
    appends (the pre-change baseline flushed once per append)."""

    @pytest.mark.parametrize("mode", MODES)
    def test_flushes_at_most_half_of_appends(self, tmp_path, mode):
        # multi-row transactions against a small cache: evicted leaves
        # carry several fresh tuples, so their NEW_TUPLE (and, on re-read,
        # READ_HASH) bursts share one barrier flush
        db = make_db(tmp_path, mode, buffer_pages=12)
        for batch in range(40):
            with db.transaction() as txn:
                for i in range(8):
                    db.insert(txn, "rows",
                              {"k": batch * 8 + i, "v": batch})
        db.engine.run_stamper()
        db.engine.checkpoint()
        db.engine.buffer.drop_all()
        for k in range(0, 320, 4):
            assert db.get("rows", (k,))["v"] == k // 8
        registry = db.obs.registry
        appends = registry.value("worm_appends_total")
        flushes = registry.value("worm_flushes_total")
        assert appends > 0
        # without group commit every append is its own write+flush
        # round-trip
        assert flushes * 2 <= appends, (flushes, appends)


class TestHashCaching:
    def test_repeated_read_of_unchanged_page_hashes_nothing(
            self, tmp_path):
        db = make_db(tmp_path, ComplianceMode.HASH_ON_READ)
        for k in range(10):
            put(db, k, k)
        db.engine.run_stamper()
        db.engine.checkpoint()
        db.engine.buffer.drop_all()
        for k in range(10):
            db.get("rows", (k,))  # first cold read: hashes + caches
        db.engine.buffer.drop_all()
        before_sha = HASH_STATS.sha512_calls
        registry = db.obs.registry
        before_hits = registry.value("plugin_hash_cache_hits_total")
        for k in range(10):
            assert db.get("rows", (k,))["v"] == k  # second cold read
        assert HASH_STATS.sha512_calls == before_sha  # zero new SHA-512
        assert registry.value("plugin_hash_cache_hits_total") > before_hits

    def test_cache_invalidated_when_page_changes(self, tmp_path):
        # a changed page must be re-hashed, not served from the cache
        db = make_db(tmp_path, ComplianceMode.HASH_ON_READ)
        put(db, 1, 1)
        db.engine.run_stamper()
        db.engine.checkpoint()
        db.engine.buffer.drop_all()
        db.get("rows", (1,))
        put(db, 1, 2)
        db.engine.run_stamper()
        db.engine.checkpoint()
        db.engine.buffer.drop_all()
        before = HASH_STATS.sha512_calls
        assert db.get("rows", (1,))["v"] == 2
        assert HASH_STATS.sha512_calls > before
        report = Auditor(db).audit()
        assert report.ok, report.summary()


class TestPluginCounters:
    def test_group_commit_counters_move(self, tmp_path):
        db = make_db(tmp_path, ComplianceMode.LOG_CONSISTENT)
        put(db, 1, 1)
        db.engine.checkpoint()
        put(db, 1, 2)
        db.engine.checkpoint()  # same leaf rewritten: diff served from cache
        counters = db.metrics()["counters"]
        assert counters["clog_buffered_appends_total"] > 0
        assert counters["clog_barrier_flushes_total"] > 0
        assert counters["plugin_diff_cache_hits_total"] >= 1
        report = Auditor(db).audit()
        assert report.ok, report.summary()

    def test_unchanged_page_rewrite_is_free(self, tmp_path):
        # flushing a page whose bytes did not change must not re-diff it
        db = make_db(tmp_path, ComplianceMode.LOG_CONSISTENT)
        put(db, 1, 1)
        db.engine.checkpoint()
        registry = db.obs.registry
        before = registry.value("plugin_diff_cache_hits_total")
        info = db.engine.relation("rows")
        pgno = info.tree.leaf_pgnos()[0]
        raw = db.engine.pager.read_raw(pgno)
        db.engine.pager.write_page(pgno, raw)  # byte-identical rewrite
        assert registry.value("plugin_diff_cache_hits_total") == before + 1
