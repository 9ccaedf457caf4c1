"""Tests for the PR 7 durability/consistency bugfixes.

Four fixes ride under the multi-client server:

1. ``WormServer.create_file`` routes immutable bytes through the same
   write+flush path as append data, so ``fsync`` is honoured and the
   flush counters see them.
2. ``WormServer.append(durable=True)`` folds any buffered chunks into
   the *same* physical flush as the new bytes (one round-trip, not two).
3. A failing commit/abort listener halts the transaction manager
   (:class:`ComplianceHaltError`) instead of leaving the compliance log
   silently diverged from the WAL; crash + recovery repairs it.
4. ``TransactionManager.crash_reset`` clears the lock table *in place*
   so components holding a reference keep observing the live table.
"""

import pytest

from repro.common.clock import SimulatedClock, years
from repro.common.config import ComplianceMode, DBConfig
from repro.common.errors import (ComplianceHaltError, LockConflictError,
                                 WormError)
from repro.core import Auditor, CompliantDB
from repro.txn import (LockMode, LockTable, TransactionManager, TxnState)
from repro.wal import TransactionLog
from repro.worm import WormServer


def counter(obs, name, **labels):
    return obs.registry.counter(name, **labels).value


class TestCreateFileFlushPath:
    def test_create_file_counts_flush_and_bytes(self, worm):
        flushes = counter(worm.obs, "worm_flushes_total")
        written = counter(worm.obs, "worm_bytes_written_total")
        worm.create_file("doc", b"x" * 300)
        assert counter(worm.obs, "worm_flushes_total") == flushes + 1
        assert counter(worm.obs, "worm_bytes_written_total") == \
            written + 300
        assert worm.read("doc") == b"x" * 300
        assert worm.size("doc") == 300

    def test_create_file_honours_fsync(self, tmp_path, clock):
        worm = WormServer(tmp_path / "w", clock,
                          default_retention=years(1), fsync=True)
        before = counter(worm.obs, "worm_fsyncs_total")
        worm.create_file("doc", b"payload")
        assert counter(worm.obs, "worm_fsyncs_total") == before + 1

    def test_create_file_flush_histogram_sees_bytes(self, worm):
        from repro.obs import DEFAULT_SIZE_BUCKETS
        worm.create_file("doc", b"y" * 64)
        hist = worm.obs.registry.histogram(
            "worm_flush_bytes", buckets=DEFAULT_SIZE_BUCKETS)
        assert hist.sum >= 64

    def test_empty_witness_file_costs_no_flush(self, worm):
        before = counter(worm.obs, "worm_flushes_total")
        worm.create_file("witness")
        assert counter(worm.obs, "worm_flushes_total") == before
        assert worm.size("witness") == 0

    def test_created_file_leaves_no_open_handle(self, worm):
        # a handle left open by the write path would keep the file
        # mutable-looking and leak on delete
        worm.create_file("doc", b"data")
        assert "doc" not in worm._append_handles


class TestDurableAppendCoalesces:
    def test_durable_append_after_buffered_is_one_flush(self, worm):
        worm.create_append_file("log")
        worm.append("log", b"aa", durable=False)
        worm.append("log", b"bb", durable=False)
        flushes = counter(worm.obs, "worm_flushes_total")
        worm.append("log", b"cc", durable=True)
        assert counter(worm.obs, "worm_flushes_total") == flushes + 1
        assert worm.buffered("log") == 0
        assert worm.read("log") == b"aabbcc"

    def test_coalesced_flush_preserves_order_across_crash(self, worm):
        worm.create_append_file("log")
        worm.append("log", b"11", durable=False)
        worm.append("log", b"22", durable=True)
        # everything landed durably: a crash must lose nothing
        assert worm.drop_buffers() == 0
        assert worm.read("log") == b"1122"
        assert worm.size("log") == 4

    def test_plain_durable_append_unchanged(self, worm):
        worm.create_append_file("log")
        flushes = counter(worm.obs, "worm_flushes_total")
        offset = worm.append("log", b"solo", durable=True)
        assert offset == 0
        assert counter(worm.obs, "worm_flushes_total") == flushes + 1


def make_manager(tmp_path):
    wal = TransactionLog(tmp_path / "wal.log")
    return TransactionManager(SimulatedClock(), wal)


class TestListenerFailureHalts:
    def test_commit_listener_failure_raises_halt(self, tmp_path):
        mgr = make_manager(tmp_path)
        mgr.on_commit.append(
            lambda txn, ct: (_ for _ in ()).throw(WormError("box down")))
        txn = mgr.begin()
        with pytest.raises(ComplianceHaltError):
            mgr.commit(txn)
        assert mgr.halted
        assert isinstance(mgr.halt_cause, WormError)

    def test_commit_is_still_counted_as_durable(self, tmp_path):
        # WAL ground truth: the COMMIT record flushed before the
        # listener ran, so the counters must record the outcome
        mgr = make_manager(tmp_path)
        mgr.on_commit.append(
            lambda txn, ct: (_ for _ in ()).throw(WormError("box down")))
        txn = mgr.begin()
        with pytest.raises(ComplianceHaltError):
            mgr.commit(txn)
        assert counter(mgr.obs, "txn_commit_total") == 1
        assert mgr.obs.registry.gauge("txn_active").value == 0
        assert txn.state is TxnState.COMMITTED
        assert txn.txn_id in mgr.commit_times

    def test_halted_manager_rejects_everything(self, tmp_path):
        mgr = make_manager(tmp_path)
        mgr.on_commit.append(
            lambda txn, ct: (_ for _ in ()).throw(WormError("box down")))
        survivor = mgr.begin()
        with pytest.raises(ComplianceHaltError):
            mgr.commit(mgr.begin())
        with pytest.raises(ComplianceHaltError):
            mgr.begin()
        with pytest.raises(ComplianceHaltError):
            mgr.commit(survivor)
        with pytest.raises(ComplianceHaltError):
            mgr.abort(survivor)

    def test_abort_listener_failure_also_halts(self, tmp_path):
        mgr = make_manager(tmp_path)
        mgr.on_abort.append(
            lambda txn: (_ for _ in ()).throw(WormError("box down")))
        txn = mgr.begin()
        with pytest.raises(ComplianceHaltError):
            mgr.abort(txn)
        assert mgr.halted
        assert counter(mgr.obs, "txn_abort_total") == 1

    def test_halt_gauge_tracks_poison(self, tmp_path):
        mgr = make_manager(tmp_path)
        gauge = mgr.obs.registry.gauge("txn_halted")
        assert gauge.value == 0
        mgr.on_commit.append(
            lambda txn, ct: (_ for _ in ()).throw(WormError("box down")))
        with pytest.raises(ComplianceHaltError):
            mgr.commit(mgr.begin())
        assert gauge.value == 1
        mgr.crash_reset()
        assert gauge.value == 0

    def test_crash_reset_lifts_the_poison(self, tmp_path):
        mgr = make_manager(tmp_path)
        failing = \
            lambda txn, ct: (_ for _ in ()).throw(WormError("box down"))
        mgr.on_commit.append(failing)
        with pytest.raises(ComplianceHaltError):
            mgr.commit(mgr.begin())
        mgr.on_commit.remove(failing)
        mgr.crash_reset()
        assert not mgr.halted
        txn = mgr.begin()
        assert mgr.commit(txn) > txn.txn_id


class TestCrashResetLockTable:
    def test_lock_table_identity_survives_crash_reset(self, tmp_path):
        mgr = make_manager(tmp_path)
        table_ref = mgr.locks  # e.g. the engine's reference
        txn = mgr.begin()
        mgr.locks.acquire(txn.txn_id, "r", LockMode.EXCLUSIVE)  # repro-lint: disable=lock-discipline -- unit test drives the LockTable directly; crash_reset is the release under test
        mgr.crash_reset()
        assert mgr.locks is table_ref
        assert table_ref.holders("r") == set()
        # the shared reference observes post-crash grants
        fresh = mgr.begin()
        table_ref.acquire(fresh.txn_id, "r", LockMode.EXCLUSIVE)
        assert mgr.locks.holders("r") == {fresh.txn_id}

    def test_clear_drops_every_holder(self):
        table = LockTable()
        table.acquire(1, "a", LockMode.EXCLUSIVE)
        table.acquire(2, "b", LockMode.SHARED)
        table.acquire(3, "b", LockMode.SHARED)
        table.clear()
        assert table.holders("a") == set()
        assert table.holders("b") == set()
        assert table.held_by(2) == set()
        table.acquire(9, "a", LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError):
            table.acquire(10, "a", LockMode.SHARED)


class TestFreshClockReopen:
    """Reopening with a brand-new SimulatedClock (what repro-admin and
    the server do) must fast-forward past persisted state — otherwise
    new commits stamp *earlier* than records already in L and the audit
    fails its stamp-order check."""

    @staticmethod
    def _schema():
        from repro.common.codec import Field, FieldType, Schema
        return Schema(
            "t", [Field("k", FieldType.INT), Field("v", FieldType.STR)],
            key_fields=["k"])

    def test_reopen_advances_clock_past_persisted_state(self, tmp_path):
        db = CompliantDB.create(
            tmp_path / "db",
            DBConfig.for_mode(ComplianceMode.LOG_CONSISTENT))
        db.create_relation(self._schema())
        txn = db.begin()
        db.insert(txn, "t", {"k": 1, "v": "first"})
        db.commit(txn)
        high = db.clock.now()
        db.close()

        fresh = SimulatedClock()
        db = CompliantDB.open(tmp_path / "db", fresh)
        db.recover()
        assert fresh.now() >= high
        txn = db.begin()
        db.insert(txn, "t", {"k": 2, "v": "second"})
        db.commit(txn)
        report = Auditor(db).audit(rotate=False)
        assert report.ok, [f.detail for f in report.findings]
        db.close()

    def test_shared_clock_reopen_is_unaffected(self, tmp_path):
        clock = SimulatedClock()
        db = CompliantDB.create(
            tmp_path / "db",
            DBConfig.for_mode(ComplianceMode.LOG_CONSISTENT),
            clock=clock)
        db.create_relation(self._schema())
        txn = db.begin()
        db.insert(txn, "t", {"k": 1, "v": "row"})
        db.commit(txn)
        db.close()
        before = clock.now()
        db = CompliantDB.open(tmp_path / "db", clock)
        db.recover()
        assert clock.now() == before
        db.close()


class TestHaltEndToEnd:
    """The paper's Section IV failure path, end to end: the WORM box
    rejects a STAMP_TRANS append mid-commit, the database halts, and a
    crash + recovery repairs the compliance log from the WAL with a
    clean audit."""

    @pytest.mark.parametrize("checkpoint", [False, True],
                             ids=["crash", "checkpoint-then-crash"])
    def test_halt_then_crash_recover_then_clean_audit(self, tmp_path,
                                                      checkpoint):
        db = CompliantDB.create(
            tmp_path / "db",
            DBConfig.for_mode(ComplianceMode.LOG_CONSISTENT))
        from repro.common.codec import Field, FieldType, Schema
        db.create_relation(Schema(
            "t", [Field("k", FieldType.INT), Field("v", FieldType.STR)],
            key_fields=["k"]))

        real_append = db.worm.append
        clog_name = db.clog.name

        def failing_append(name, data, durable=True):
            # only the compliance log's STAMP_TRANS append fails — the
            # WAL mirror keeps working, as for a partial WORM outage
            if name == clog_name:
                raise WormError("simulated WORM outage")
            return real_append(name, data, durable=durable)

        txn = db.begin()
        db.insert(txn, "t", {"k": 1, "v": "one"})
        db.worm.append = failing_append
        try:
            with pytest.raises(ComplianceHaltError):
                db.commit(txn)
        finally:
            db.worm.append = real_append

        assert db.halted
        with pytest.raises(ComplianceHaltError):
            db.begin()

        if checkpoint:
            # a halted manager keeps the WAL head: its COMMIT is the
            # only durable trace of an outcome L lacks
            db.checkpoint()
        db.crash()
        db.recover()
        assert not db.halted

        # the commit was durable: recovery kept the row and re-derived
        # the missing STAMP_TRANS record from the WAL
        assert db.get("t", (1,)) == {"k": 1, "v": "one"}
        report = Auditor(db).audit(rotate=False)
        assert report.ok, [f.detail for f in report.findings]
        db.close()
