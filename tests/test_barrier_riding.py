"""The stamp index and the WAL mirror ride the compliance barriers.

One WORM round-trip carries every file a barrier drains: L, its
auxiliary stamp index, and the WAL-mirror bytes that commit, abort and
page write-back defer to that barrier.  These tests pin the round-trip
counts and the invariant the deferral must keep: at every operation
boundary the WORM mirror holds exactly the projection of every WAL
record flushed in the epoch, record for record, and the durable WAL's
projection is its suffix (a quiesced checkpoint drops the r/w WAL, the
mirror keeps the epoch), so a crash anywhere between operations still
audits clean.  The projection keeps outcomes and insert identities, never
tuple payloads, and system-only flushes cost the mirror nothing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (Auditor, ComplianceConfig, ComplianceMode, CompliantDB,
                   DBConfig, EngineConfig, Field, FieldType, Schema,
                   SimulatedClock, minutes)
from repro.common.clock import years
from repro.common.errors import ComplianceHaltError, WormError
from repro.txn import TransactionManager
from repro.wal import TransactionLog, WalRecordType, iter_mirror, \
    mirror_frame
from repro.worm import WormServer

ROWS = Schema("rows", [
    Field("k", FieldType.INT),
    Field("v", FieldType.INT),
], key_fields=["k"])

BLOBS = Schema("blobs", [
    Field("k", FieldType.INT),
    Field("body", FieldType.BYTES),
], key_fields=["k"])

MODES = [ComplianceMode.LOG_CONSISTENT, ComplianceMode.HASH_ON_READ]


def make_db(tmp_path, mode, buffer_pages=256):
    db = CompliantDB.create(
        tmp_path / "db", clock=SimulatedClock(),
        config=DBConfig(engine=EngineConfig(page_size=1024,
                                            buffer_pages=buffer_pages),
                        compliance=ComplianceConfig(
                            mode=mode, regret_interval=minutes(5))))
    db.create_relation(ROWS)
    db.checkpoint()
    return db


def value(db, name):
    return db.obs.registry.value(name)


def project(records):
    """The mirror's view of WAL records: each one's projection, decoded."""
    return list(iter_mirror(b"".join(mirror_frame(r) for r in records)))


def is_suffix(tail, records):
    return len(tail) <= len(records) and \
        records[len(records) - len(tail):] == tail


class MirrorWatch:
    """The WAL-mirror invariant, across checkpoints that drop the WAL.

    The durable mirror must equal the projection of every WAL record
    flushed in this epoch, and the durable WAL's projection must be its
    suffix.  A quiesced checkpoint truncates the r/w WAL, so the watch
    collects each dropped log's records on the way out; what the mirror
    held ahead of the durable WAL when the watch started is the epoch's
    history up to then.
    """

    def __init__(self, db):
        self.wal, self.worm = db.engine.wal, db.worm
        mirrored, durable = self._mirrored(), self._durable()
        assert is_suffix(durable, mirrored)
        self.flushed = mirrored[:len(mirrored) - len(durable)]
        truncate = self.wal.truncate

        def retire():
            self.flushed.extend(self._durable())
            truncate()
        self.wal.truncate = retire

    def _mirrored(self):
        name = self.wal.worm_mirror_name
        durable = self.worm.size(name) - self.worm.buffered(name)
        return list(iter_mirror(self.worm.read(name, 0, durable)))

    def _durable(self):
        return project(self.wal.iter_records())

    def check(self):
        mirrored, durable = self._mirrored(), self._durable()
        assert mirrored == self.flushed + durable
        assert is_suffix(durable, mirrored)


class TestWormGroupRoundTrip:
    def test_sync_all_is_one_round_trip_for_many_files(self, worm):
        for name in ("a", "b", "c"):
            worm.create_append_file(name)
            worm.append(name, name.encode() * 3, durable=False)
        flushes = worm.obs.registry.value("worm_flushes_total")
        files = worm.obs.registry.value("worm_file_writes_total")
        assert worm.sync_all() == 3
        assert worm.obs.registry.value("worm_flushes_total") == flushes + 1
        assert worm.obs.registry.value("worm_file_writes_total") == \
            files + 3
        assert worm.drop_buffers() == 0  # everything landed
        assert [worm.read(n) for n in "abc"] == [b"aaa", b"bbb", b"ccc"]
        # with nothing buffered a group barrier costs nothing
        worm.append("a", b"x", durable=True)
        flushes = worm.obs.registry.value("worm_flushes_total")
        assert worm.sync_all() == 0
        assert worm.obs.registry.value("worm_flushes_total") == flushes


@pytest.mark.parametrize("mode", MODES)
class TestOneRoundTripPerOutcome:
    def test_write_commit(self, tmp_path, mode):
        db = make_db(tmp_path, mode)
        watch, before = MirrorWatch(db), value(db, "worm_flushes_total")
        deferred = value(db, "wal_mirror_deferred_total")
        flushes = value(db, "wal_flushes_total")
        for k in range(20):
            with db.transaction() as txn:
                db.insert(txn, "rows", {"k": k, "v": k})
        assert value(db, "worm_flushes_total") - before == 20
        watch.check()
        # each commit's WAL flush wrote once and deferred its mirror copy
        assert value(db, "wal_mirror_deferred_total") == deferred + 20
        assert value(db, "wal_flushes_total") == flushes + 20

    def test_read_only_commit(self, tmp_path, mode):
        db = make_db(tmp_path, mode)
        with db.transaction() as txn:
            db.insert(txn, "rows", {"k": 1, "v": 1})
        before = value(db, "worm_flushes_total")
        for _ in range(10):
            with db.transaction() as txn:
                assert db.get("rows", (1,), txn=txn)["v"] == 1
        assert value(db, "worm_flushes_total") - before == 10

    def test_abort(self, tmp_path, mode):
        db = make_db(tmp_path, mode)
        watch, before = MirrorWatch(db), value(db, "worm_flushes_total")
        txn = db.begin()
        db.insert(txn, "rows", {"k": 7, "v": 7})
        db.abort(txn)
        assert value(db, "worm_flushes_total") - before == 1
        watch.check()


class TestWriteBackRides:
    def test_mirror_is_durable_before_every_page_write(self, tmp_path):
        # the probe runs after the plugin's pwrite barrier, i.e. at the
        # moment the data page's bytes go to disk
        for mode in MODES:
            db = make_db(tmp_path / mode.name, mode, buffer_pages=12)
            wal = db.engine.wal
            writes = []
            db.engine.pager.pwrite_barriers.append(
                lambda pgno: writes.append(wal.mirror_pending))
            for batch in range(30):
                with db.transaction() as txn:
                    for i in range(8):
                        db.insert(txn, "rows",
                                  {"k": batch * 8 + i, "v": i})
            db.engine.checkpoint()
            assert writes and not any(writes), mode

    def test_steal_with_wal_bytes_is_one_round_trip(self, tmp_path):
        # an uncommitted insert leaves WAL bytes and a pending NEW_TUPLE;
        # writing its page back drains both in one round-trip
        db = make_db(tmp_path, ComplianceMode.LOG_CONSISTENT)
        watch = MirrorWatch(db)
        txn = db.begin()
        db.insert(txn, "rows", {"k": 1, "v": 1})
        before = value(db, "worm_flushes_total")
        deferred = value(db, "wal_mirror_deferred_total")
        db.engine.buffer.flush_page(db.engine.relation("rows").root_pgno)
        assert value(db, "worm_flushes_total") - before == 1
        assert value(db, "wal_mirror_deferred_total") == deferred + 1
        watch.check()
        db.commit(txn)


@pytest.mark.parametrize("mode", MODES)
class TestMirrorHoldsWhatTheAuditReads:
    def test_payload_never_reaches_the_mirror(self, tmp_path, mode):
        db = make_db(tmp_path, mode)
        db.create_relation(BLOBS)
        sentinel = b"mirror-sentinel:" + bytes(range(48))
        with db.transaction() as txn:
            db.insert(txn, "blobs", {"k": 1, "body": sentinel})
        with db.transaction() as txn:
            db.update(txn, "blobs", {"k": 1, "body": sentinel[::-1]})
        assert sentinel in db.engine.wal.path.read_bytes()
        db.checkpoint()  # quiesced: the r/w WAL goes, the mirror stays
        assert sentinel not in db.engine.wal.path.read_bytes()
        mirror = b"".join(db.worm.read(name)
                          for name in db.worm.list_files("txnlog/"))
        assert mirror and sentinel not in mirror
        assert sentinel[::-1] not in mirror
        relation_id = db.engine.relation("blobs").relation_id
        inserts = [r for r in iter_mirror(mirror)
                   if r.rtype == WalRecordType.INSERT
                   and r.relation_id == relation_id]
        assert len(inserts) == 2 and inserts[0].key == inserts[1].key

    def test_system_only_flushes_cost_the_mirror_nothing(self, tmp_path,
                                                         mode):
        db = make_db(tmp_path, mode)
        with db.transaction() as txn:
            db.insert(txn, "rows", {"k": 1, "v": 1})
        db.engine.checkpoint()
        watch, name = MirrorWatch(db), db.engine.wal.worm_mirror_name
        [version] = [view.raw for view in db.engine.versions("rows", (1,))]
        info = db.engine.relation("rows")

        def costs(operation):
            """(WAL flushes, WORM round-trips, mirror bytes) it adds"""
            before = (value(db, "wal_flushes_total"),
                      value(db, "worm_flushes_total"), db.worm.size(name))
            operation()
            return (value(db, "wal_flushes_total") - before[0],
                    value(db, "worm_flushes_total") - before[1],
                    db.worm.size(name) - before[2])

        assert costs(lambda: db.engine.physically_delete(
            info.relation_id, version.key, version.start)) == (1, 0, 0)
        db.engine.checkpoint()  # writes the vacuumed leaf back
        # nothing dirty, nothing buffered: only the CHECKPOINT record
        assert costs(db.engine.checkpoint) == (1, 0, 0)
        assert not db.engine.wal.mirror_pending
        watch.check()


def test_failed_listener_leaves_no_outcome_off_the_mirror(tmp_path):
    worm = WormServer(tmp_path / "worm", SimulatedClock(),
                      default_retention=years(1))
    wal = TransactionLog(tmp_path / "wal.log")
    wal.set_worm_mirror(worm, "txnlog")
    mgr = TransactionManager(SimulatedClock(), wal)
    mgr.on_commit.append(
        lambda txn, ct: (_ for _ in ()).throw(WormError("L down")))
    with pytest.raises(ComplianceHaltError):
        mgr.commit(mgr.begin())
    assert not wal.mirror_pending
    worm.drop_buffers()  # a crash now loses nothing the WAL holds
    mirrored = list(iter_mirror(worm.read("txnlog")))
    assert mirrored == project(wal.iter_records())
    assert mirrored[-1].rtype == WalRecordType.COMMIT


OPS = st.lists(st.sampled_from(
    ["insert", "update", "read", "abort", "checkpoint", "crash",
     "maintenance"]), min_size=1, max_size=14)


@settings(max_examples=12, deadline=None)
@given(mode=st.sampled_from(MODES), ops=OPS)
def test_mirror_equals_wal_at_every_operation_boundary(tmp_path_factory,
                                                       mode, ops):
    db = make_db(tmp_path_factory.mktemp("riding"), mode, buffer_pages=12)
    watch = MirrorWatch(db)
    live, key = [], 0
    for op in ops:
        if op in ("insert", "abort"):
            txn = db.begin()
            keys = list(range(key, key + 6))
            key += 6
            for k in keys:
                db.insert(txn, "rows", {"k": k, "v": k})
            if op == "abort":
                db.abort(txn)
            else:
                db.commit(txn)
                live.extend(keys)
        elif op == "update" and live:
            with db.transaction() as txn:
                for k in live[-6:]:
                    db.update(txn, "rows", {"k": k, "v": -k})
        elif op in ("read", "update"):
            with db.transaction() as txn:
                db.scan("rows", txn=txn)
        elif op == "checkpoint":
            db.checkpoint()
        elif op == "crash":
            db.crash()
            db.recover()
        else:
            db.pass_time(minutes(5))
        assert not db.engine.wal.mirror_pending
        watch.check()
    report = Auditor(db).audit(rotate=False)
    assert report.ok, report.summary()
