"""Tests for the transaction-time engine: DML, temporal reads, stamping,
catalog, crash recovery."""

import pytest

from repro.common.clock import SimulatedClock, years
from repro.common.codec import Field, FieldType, Schema, encode_key
from repro.common.config import EngineConfig
from repro.common.errors import (ConfigError, DuplicateKeyError,
                                 KeyNotFoundError, RelationNotFoundError,
                                 TransactionAborted, TransactionError,
                                 TransactionStateError)
from repro.temporal import Engine
from repro.worm import WormServer

ACCOUNTS = Schema("accounts", [
    Field("acct_id", FieldType.INT),
    Field("owner", FieldType.STR),
    Field("balance", FieldType.INT),
], key_fields=["acct_id"])


@pytest.fixture
def engine(tmp_path, clock):
    eng = Engine.create(tmp_path / "db", clock,
                        config=EngineConfig(page_size=1024,
                                            buffer_pages=32))
    eng.create_relation(ACCOUNTS)
    eng.run_stamper()  # clear the catalog tuple's pending stamp
    return eng


def put(engine, acct_id, balance, owner="alice", op="insert"):
    with engine.transaction() as txn:
        row = {"acct_id": acct_id, "owner": owner, "balance": balance}
        getattr(engine, op)(txn, "accounts", row)


class TestDML:
    def test_insert_and_get(self, engine):
        put(engine, 1, 100)
        row = engine.get("accounts", (1,))
        assert row == {"acct_id": 1, "owner": "alice", "balance": 100}

    def test_get_missing_returns_none(self, engine):
        assert engine.get("accounts", (404,)) is None

    def test_duplicate_insert_rejected(self, engine):
        put(engine, 1, 100)
        with pytest.raises(DuplicateKeyError):
            put(engine, 1, 200)

    def test_update_creates_new_version(self, engine):
        put(engine, 1, 100)
        put(engine, 1, 150, op="update")
        assert engine.get("accounts", (1,))["balance"] == 150
        engine.run_stamper()
        history = engine.versions("accounts", (1,))
        assert [v.row["balance"] for v in history] == [100, 150]
        assert history[0].start < history[1].start

    def test_update_requires_existing(self, engine):
        with pytest.raises(KeyNotFoundError):
            put(engine, 1, 100, op="update")

    def test_delete_writes_end_of_life(self, engine):
        put(engine, 1, 100)
        with engine.transaction() as txn:
            engine.delete(txn, "accounts", (1,))
        assert engine.get("accounts", (1,)) is None
        history = engine.versions("accounts", (1,))
        assert [v.eol for v in history] == [False, True]

    def test_delete_requires_existing(self, engine):
        with pytest.raises(KeyNotFoundError):
            with engine.transaction() as txn:
                engine.delete(txn, "accounts", (1,))

    def test_reinsert_after_delete(self, engine):
        put(engine, 1, 100)
        with engine.transaction() as txn:
            engine.delete(txn, "accounts", (1,))
        put(engine, 1, 300)
        assert engine.get("accounts", (1,))["balance"] == 300
        assert len(engine.versions("accounts", (1,))) == 3

    def test_double_write_same_txn_rejected(self, engine):
        with pytest.raises(TransactionError):
            with engine.transaction() as txn:
                engine.insert(txn, "accounts",
                              {"acct_id": 1, "owner": "a", "balance": 1})
                engine.update(txn, "accounts",
                              {"acct_id": 1, "owner": "a", "balance": 2})

    def test_unknown_relation(self, engine):
        with pytest.raises(RelationNotFoundError):
            engine.get("nope", (1,))

    def test_scan_returns_current_rows(self, engine):
        for acct in range(10):
            put(engine, acct, acct * 10)
        put(engine, 3, 999, op="update")
        with engine.transaction() as txn:
            engine.delete(txn, "accounts", (7,))
        rows = engine.scan("accounts")
        assert len(rows) == 9
        by_key = {k[0]: row for k, row in rows}
        assert by_key[3]["balance"] == 999
        assert 7 not in by_key

    def test_scan_range(self, engine):
        for acct in range(10):
            put(engine, acct, acct)
        rows = engine.scan("accounts", lo=(3,), hi=(6,))
        assert [k[0] for k, _ in rows] == [3, 4, 5]

    def test_count_rows(self, engine):
        for acct in range(5):
            put(engine, acct, 0)
        assert engine.count_rows("accounts") == 5


class TestTransactions:
    def test_abort_rolls_back(self, engine):
        txn = engine.begin()
        engine.insert(txn, "accounts",
                      {"acct_id": 1, "owner": "a", "balance": 1})
        engine.abort(txn)
        assert engine.get("accounts", (1,)) is None
        assert engine.versions("accounts", (1,)) == []

    def test_context_manager_aborts_on_exception(self, engine):
        with pytest.raises(RuntimeError):
            with engine.transaction() as txn:
                engine.insert(txn, "accounts",
                              {"acct_id": 1, "owner": "a", "balance": 1})
                raise RuntimeError("boom")
        assert engine.get("accounts", (1,)) is None

    def test_own_writes_visible_before_commit(self, engine):
        with engine.transaction() as txn:
            engine.insert(txn, "accounts",
                          {"acct_id": 1, "owner": "a", "balance": 5})
            assert engine.get("accounts", (1,), txn=txn)["balance"] == 5

    def test_uncommitted_invisible_to_others(self, engine):
        txn = engine.begin()
        engine.insert(txn, "accounts",
                      {"acct_id": 1, "owner": "a", "balance": 5})
        assert engine.get("accounts", (1,)) is None
        engine.commit(txn)
        assert engine.get("accounts", (1,))["balance"] == 5

    def test_write_write_conflict_detected(self, engine):
        put(engine, 1, 100)
        early = engine.begin()          # begins now…
        put(engine, 1, 200, op="update")  # …another txn commits the key
        with pytest.raises(TransactionAborted):
            engine.update(early, "accounts",
                          {"acct_id": 1, "owner": "a", "balance": 300})
        engine.abort(early)
        assert engine.get("accounts", (1,))["balance"] == 200

    def test_lock_conflict_between_open_txns(self, engine):
        from repro.common.errors import LockConflictError
        first = engine.begin()
        engine.insert(first, "accounts",
                      {"acct_id": 1, "owner": "a", "balance": 1})
        second = engine.begin()
        with pytest.raises(LockConflictError):
            engine.insert(second, "accounts",
                          {"acct_id": 1, "owner": "b", "balance": 2})
        engine.abort(first)
        engine.insert(second, "accounts",
                      {"acct_id": 1, "owner": "b", "balance": 2})
        engine.commit(second)
        assert engine.get("accounts", (1,))["owner"] == "b"


class TestLazyTimestamping:
    def test_tuples_start_unstamped(self, engine):
        put(engine, 1, 100)
        raw = engine.relation("accounts").tree.versions(encode_key((1,)))
        assert not raw[0].stamped

    def test_stamper_applies_commit_times(self, engine):
        put(engine, 1, 100)
        assert engine.pending_stamp_count == 1
        assert engine.run_stamper() == 1
        raw = engine.relation("accounts").tree.versions(encode_key((1,)))
        assert raw[0].stamped
        assert raw[0].start == engine.last_commit_time

    def test_reads_work_before_stamping(self, engine):
        put(engine, 1, 100)
        put(engine, 1, 200, op="update")
        assert engine.get("accounts", (1,))["balance"] == 200
        history = engine.versions("accounts", (1,))
        assert all(v.start is not None for v in history)  # resolved via map


class TestTemporalQueries:
    def test_as_of_reads(self, engine, clock):
        put(engine, 1, 100)
        t1 = clock.now()
        clock.advance(1000)
        put(engine, 1, 200, op="update")
        t2 = clock.now()
        clock.advance(1000)
        with engine.transaction() as txn:
            engine.delete(txn, "accounts", (1,))
        t3 = clock.now()
        assert engine.get("accounts", (1,), at=t1)["balance"] == 100
        assert engine.get("accounts", (1,), at=t2)["balance"] == 200
        assert engine.get("accounts", (1,), at=t3) is None
        assert engine.get("accounts", (1,), at=t1 - 5000) is None

    def test_as_of_scan(self, engine, clock):
        put(engine, 1, 100)
        put(engine, 2, 200)
        t1 = clock.now()
        clock.advance(1000)
        put(engine, 2, 999, op="update")
        put(engine, 3, 300)
        rows = engine.scan("accounts", at=t1)
        assert {k[0]: r["balance"] for k, r in rows} == {1: 100, 2: 200}


class TestCatalog:
    def test_create_relation_transactional(self, engine):
        names = engine.relation_names()
        assert names == ["accounts"]

    def test_duplicate_relation_rejected(self, engine):
        with pytest.raises(DuplicateKeyError):
            engine.create_relation(ACCOUNTS)

    def test_drop_relation_is_end_of_life(self, engine):
        engine.drop_relation("accounts")
        assert engine.relation_names() == []
        with pytest.raises(RelationNotFoundError):
            engine.get("accounts", (1,))

    def test_recreate_after_drop(self, engine):
        put(engine, 1, 100)
        engine.drop_relation("accounts")
        engine.create_relation(ACCOUNTS)
        assert engine.get("accounts", (1,)) is None  # fresh tree

    def test_survives_clean_restart(self, tmp_path, clock):
        eng = Engine.create(tmp_path / "db", clock)
        eng.create_relation(ACCOUNTS)
        put(eng, 1, 100)
        eng.close()
        reopened = Engine.open(tmp_path / "db", clock)
        reopened.recover()
        assert reopened.relation_names() == ["accounts"]
        assert reopened.get("accounts", (1,))["balance"] == 100

    def test_create_requires_fresh_dir(self, tmp_path, clock):
        Engine.create(tmp_path / "db", clock).close()
        with pytest.raises(ConfigError):
            Engine.create(tmp_path / "db", clock)
        with pytest.raises(ConfigError):
            Engine.open(tmp_path / "other", clock)


class TestCrashRecovery:
    def make(self, tmp_path, clock, **kwargs):
        eng = Engine.create(tmp_path / "db", clock,
                            config=EngineConfig(page_size=1024,
                                                buffer_pages=16), **kwargs)
        eng.create_relation(ACCOUNTS)
        eng.checkpoint()
        return eng

    def test_committed_work_survives_crash(self, tmp_path, clock):
        eng = self.make(tmp_path, clock)
        for acct in range(20):
            put(eng, acct, acct)
        eng.crash()
        report = eng.recover()
        assert report.losers == set()
        for acct in range(20):
            assert eng.get("accounts", (acct,))["balance"] == acct

    def test_loser_transaction_rolled_back(self, tmp_path, clock):
        eng = self.make(tmp_path, clock)
        put(eng, 1, 100)
        txn = eng.begin()
        eng.insert(txn, "accounts",
                   {"acct_id": 2, "owner": "x", "balance": 2})
        eng.wal.flush()          # its INSERT is durable, its COMMIT is not
        eng.checkpoint()         # steal: uncommitted tuple reaches disk
        eng.crash()
        report = eng.recover()
        assert report.losers == {txn.txn_id}
        assert eng.get("accounts", (2,)) is None
        assert eng.get("accounts", (1,))["balance"] == 100

    def test_unflushed_committed_txn_redone(self, tmp_path, clock):
        eng = self.make(tmp_path, clock)
        put(eng, 1, 100)  # commit flushes the WAL, pages stay dirty
        eng.crash()
        report = eng.recover()
        assert report.redone >= 1
        assert eng.get("accounts", (1,))["balance"] == 100

    def test_recovery_restamps(self, tmp_path, clock):
        eng = self.make(tmp_path, clock)
        put(eng, 1, 100)
        eng.crash()
        report = eng.recover()
        assert report.restamped >= 1
        raw = eng.relation("accounts").tree.versions(encode_key((1,)))
        assert raw[0].stamped

    def test_recovery_idempotent(self, tmp_path, clock):
        eng = self.make(tmp_path, clock)
        put(eng, 1, 100)
        eng.crash()
        eng.recover()
        second = eng.recover()
        assert second.redone == 0 and second.undone == 0
        assert eng.get("accounts", (1,))["balance"] == 100

    def test_aborted_txn_stays_aborted_after_crash(self, tmp_path, clock):
        eng = self.make(tmp_path, clock)
        txn = eng.begin()
        eng.insert(txn, "accounts",
                   {"acct_id": 1, "owner": "x", "balance": 1})
        eng.abort(txn)
        eng.crash()
        report = eng.recover()
        assert txn.txn_id in report.aborted
        assert eng.get("accounts", (1,)) is None

    def test_relation_created_just_before_crash(self, tmp_path, clock):
        eng = self.make(tmp_path, clock)
        other = Schema("other", [Field("k", FieldType.INT),
                                 Field("v", FieldType.INT)], ["k"])
        eng.create_relation(other)
        with eng.transaction() as txn:
            eng.insert(txn, "other", {"k": 1, "v": 42})
        eng.crash()
        eng.recover()
        assert eng.get("other", (1,))["v"] == 42

    def test_crash_during_many_txns_consistent(self, tmp_path, clock):
        eng = self.make(tmp_path, clock)
        for acct in range(50):
            put(eng, acct, acct)
            if acct % 7 == 0:
                eng.checkpoint()
        open_txn = eng.begin()
        eng.insert(open_txn, "accounts",
                   {"acct_id": 999, "owner": "loser", "balance": 0})
        eng.wal.flush()
        eng.crash()
        eng.recover()
        assert eng.count_rows("accounts") == 50
        assert eng.get("accounts", (999,)) is None

    def test_close_with_active_txn_rejected(self, tmp_path, clock):
        eng = self.make(tmp_path, clock)
        eng.begin()
        with pytest.raises(TransactionStateError):
            eng.close()
        with pytest.raises(TransactionStateError):
            eng.quiesce()


class TestTSBIntegration:
    def test_migration_and_temporal_read_through_worm(self, tmp_path,
                                                      clock):
        worm = WormServer(tmp_path / "worm", clock,
                          default_retention=years(7))
        eng = Engine.create(tmp_path / "db", clock,
                            config=EngineConfig(page_size=1024,
                                                buffer_pages=32),
                            worm=worm, worm_migration=True,
                            split_threshold=0.6)
        eng.create_relation(ACCOUNTS)
        put(eng, 1, 0)
        times = {}
        for i in range(1, 300):
            clock.advance(1000)
            put(eng, 1, i, op="update")
            times[i] = clock.now()
            eng.run_stamper()
        assert eng.histdir.page_count() > 0
        # history that migrated to WORM is still temporally queryable
        for probe in (5, 57, 123, 299):
            assert eng.get("accounts", (1,),
                           at=times[probe])["balance"] == probe

    def test_time_split_survives_crash(self, tmp_path, clock):
        worm = WormServer(tmp_path / "worm", clock,
                          default_retention=years(7))
        eng = Engine.create(tmp_path / "db", clock,
                            config=EngineConfig(page_size=1024,
                                                buffer_pages=32),
                            worm=worm, worm_migration=True,
                            split_threshold=0.6)
        eng.create_relation(ACCOUNTS)
        put(eng, 1, 0)
        for i in range(1, 200):
            put(eng, 1, i, op="update")
            eng.run_stamper()
        pages_before = eng.histdir.page_count()
        assert pages_before > 0
        eng.crash()
        eng.recover()
        assert eng.histdir.page_count() >= pages_before
        assert eng.get("accounts", (1,))["balance"] == 199
        # no version lost or duplicated across live + WORM
        history = eng.versions("accounts", (1,))
        assert len(history) == 200

    def test_migration_requires_worm(self, tmp_path, clock):
        with pytest.raises(ConfigError):
            Engine.create(tmp_path / "db", clock, worm_migration=True)
