"""The audit's verdict must not depend on how its scans are partitioned.

There is one audit engine; ``workers`` / ``chunk_pages`` / ``log_slices``
only change how many tasks the two scans are cut into and where they
run.  Every test compares :meth:`AuditReport.comparable` of a shaped run
against the inline plan (``Auditor(db)``: one chunk, one slice, this
process) over the *same* database — clean and tampered, in both
compliant architectures — plus the peek-skip fast path's header
decoding and the rule that no plan persists anything between runs.
Because both sides share their code, the absolute verdicts
are pinned elsewhere (``test_attacks``, ``test_audit_edges``,
``test_crash_compliance``, the detection matrix).
"""

import multiprocessing
import os
import pickle
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (Auditor, ComplianceConfig, ComplianceMode, CompliantDB,
                   DBConfig, EngineConfig, Field, FieldType, Schema,
                   SimulatedClock)
from repro.common.errors import AuditError, ConfigError
from repro.core import Adversary, CLogRecord, CLogType, peek_frame
from repro.core.audit import Finding
from repro.core.snapshot import snapshot_name

LEDGER = Schema("ledger", [
    Field("entry_id", FieldType.INT),
    Field("account", FieldType.STR),
    Field("amount", FieldType.INT),
], key_fields=["entry_id"])

WORKER_COUNTS = (0, 1, 2, 3, 4)
MODES = (ComplianceMode.LOG_CONSISTENT, ComplianceMode.HASH_ON_READ)


def make_db(tmp_path, mode=ComplianceMode.LOG_CONSISTENT, **compliance):
    config = DBConfig(engine=EngineConfig(page_size=1024, buffer_pages=32),
                      compliance=ComplianceConfig(mode=mode, **compliance))
    db = CompliantDB.create(tmp_path / "db", config,
                            clock=SimulatedClock())
    db.create_relation(LEDGER)
    return db


def populate(db, count=40, reads=2):
    for i in range(count):
        with db.transaction() as txn:
            db.insert(txn, "ledger",
                      {"entry_id": i, "account": "ops", "amount": i * 10})
    for i in range(0, count, 4):
        with db.transaction() as txn:
            db.update(txn, "ledger",
                      {"entry_id": i, "account": "ops", "amount": -1})
    # repeated reads: in HASH_ON_READ they append READ_HASH records whose
    # replay exercises the per-version normalisation memo
    for _ in range(reads):
        for i in range(0, count, 3):
            db.get("ledger", (i,))


def shaped(db, workers, **kwargs):
    kwargs.setdefault("chunk_pages", 5)
    kwargs.setdefault("log_slices", 3)
    return Auditor(db, workers=workers, **kwargs)


def inline(db):
    """The comparison point: the default plan's report."""
    return Auditor(db).audit(rotate=False)


@pytest.fixture(params=MODES)
def populated(tmp_path, request):
    db = make_db(tmp_path, mode=request.param)
    populate(db)
    yield db
    db.close()


def duplicate_across_chunks(db, mala):
    """Copy a committed version onto a leaf at least 5 pages away, so
    that at ``chunk_pages=5`` the two copies land in different chunks."""
    leaves = [page for page in mala._leaf_pages()
              if page.entries and not page.historical]
    source = leaves[0]
    version = source.entries[0]
    target = next(page for page in reversed(leaves)
                  if page.fits(db.engine.pager.page_size,
                               extra=version.encoded_size()))
    assert target.pgno - source.pgno >= 5
    target.entries.insert(
        target.find_slot(version.key, version.start), version)
    mala._write(target)


def cut_log_mid_frame(db, mala):
    """Append half a record frame to L (a torn out-of-band write)."""
    frame = CLogRecord(CLogType.ABORT, txn_id=1).to_bytes()
    db.worm.append(db.clog.name, frame[:len(frame) // 2])


ATTACKS = {
    "shred": lambda db, mala: mala.shred_tuple("ledger", (7,)),
    "alter": lambda db, mala: mala.alter_tuple(
        "ledger", (5,),
        {"entry_id": 5, "account": "ops", "amount": 10 ** 6}),
    "spurious-abort": lambda db, mala:
        mala.append_spurious_abort(txn_id=2),
    "spurious-stamp": lambda db, mala:
        mala.append_spurious_stamp(txn_id=10 ** 6, commit_time=5),
    "spurious-shredded": lambda db, mala:
        mala.append_spurious_shredded("ledger", (9,)),
    "backdate": lambda db, mala: mala.backdate_insert(
        "ledger", {"entry_id": 990, "account": "x", "amount": 1},
        start=5),
    "swap-leaf": lambda db, mala: mala.swap_leaf_entries("ledger"),
    "tamper-separator": lambda db, mala:
        mala.tamper_separator("ledger"),
    "duplicate-across-chunks": duplicate_across_chunks,
    "log-cut-mid-frame": cut_log_mid_frame,
}


def tamper(db, name):
    mala = Adversary(db)
    mala.settle()
    ATTACKS[name](db, mala)


class TestPeekFrame:
    def records(self):
        return [
            CLogRecord(CLogType.NEW_TUPLE, pgno=7, tuple_bytes=b"t" * 40),
            CLogRecord(CLogType.STAMP_TRANS, txn_id=3, commit_time=99),
            CLogRecord(CLogType.PAGE_SPLIT, pgno=4, left_pgno=4,
                       right_pgno=9, parent_pgno=2, sep_key=b"k",
                       left_content=[b"a"], right_content=[b"b", b"c"]),
            CLogRecord(CLogType.READ_HASH, pgno=-1, page_hash=b"h" * 16),
            CLogRecord(CLogType.CLOSE_EPOCH, timestamp=123),
        ]

    def test_peek_matches_full_decode(self):
        for record in self.records():
            framed = record.to_bytes()
            rtype, pgno, left, right, parent = peek_frame(framed, 4)
            assert rtype == int(record.rtype)
            assert pgno == record.pgno
            assert (left, right, parent) == (
                record.left_pgno, record.right_pgno, record.parent_pgno)

    def test_peek_at_offset_inside_stream(self):
        blob = b"".join(r.to_bytes() for r in self.records())
        offset = 0
        for record in self.records():
            rtype, pgno, _, _, _ = peek_frame(blob, offset + 4)
            assert rtype == int(record.rtype)
            assert pgno == record.pgno
            record2, offset = CLogRecord.from_bytes(blob, offset)
            assert record2.rtype == record.rtype


class TestCleanEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_clean_report_identical(self, populated, workers):
        reference = inline(populated)
        report = shaped(populated, workers).audit(rotate=False)
        assert report.ok
        assert report.comparable() == reference.comparable()
        assert report.expected_digest == reference.expected_digest != ""
        assert report.workers == workers
        assert reference.workers == 0

    @pytest.mark.parametrize("workers", (0, 2))
    def test_rotation_still_works(self, populated, workers):
        before = populated.epoch
        report = shaped(populated, workers).audit()
        assert report.ok and report.new_epoch == before + 1
        # the next epoch audits cleanly too
        follow_up = shaped(populated, workers).audit(rotate=False)
        assert follow_up.ok

    def test_odd_partition_shapes(self, populated):
        reference = inline(populated)
        for workers in (0, 2):
            for chunk_pages, log_slices in ((1, 1), (3, 7), (1000, 2)):
                report = Auditor(
                    populated, workers=workers, chunk_pages=chunk_pages,
                    log_slices=log_slices).audit(rotate=False)
                assert report.comparable() == reference.comparable()

    def test_hr_replay_memo_is_hit(self, tmp_path):
        db = make_db(tmp_path, mode=ComplianceMode.HASH_ON_READ)
        populate(db, reads=3)
        shaped(db, 1).audit(rotate=False)
        counters = db.metrics()["counters"]
        assert counters["audit_norm_memo_hits_total"] > 0
        db.close()


class TestTamperingEquivalence:
    """Injected tampering must be reported identically at every shape —
    same findings, same digests, same verdict."""

    @pytest.mark.parametrize("name", sorted(ATTACKS))
    def test_attack_detected_identically(self, populated, name):
        tamper(populated, name)
        reference = inline(populated)
        assert not reference.ok
        for workers in WORKER_COUNTS:
            report = shaped(populated, workers).audit(rotate=False)
            assert not report.ok
            assert report.comparable() == reference.comparable(), \
                (name, workers)

    def test_duplicate_is_reported_on_its_page(self, populated):
        # pins the absolute finding the chunk merge has to reconstruct:
        # one duplicate, on the later of the two pages
        tamper(populated, "duplicate-across-chunks")
        first = next(Adversary(populated)._leaf_pages()).pgno
        for workers in (0, 2):
            report = shaped(populated, workers).audit(rotate=False)
            (dupe,) = [f for f in report.findings
                       if f.code == "duplicate-tuple"]
            assert dupe.pgno >= first + 5

    def test_state_reversion_detected_identically(self, tmp_path):
        db = make_db(tmp_path, mode=ComplianceMode.HASH_ON_READ)
        populate(db)
        mala = Adversary(db)
        mala.settle()
        handle = mala.begin_state_reversion(
            "ledger", (6,),
            {"entry_id": 6, "account": "ops", "amount": 777})
        db.get("ledger", (6,))
        handle.revert()
        reference = inline(db)
        assert "read-hash-mismatch" in reference.codes()
        for workers in (0, 1, 2, 4):
            report = shaped(db, workers).audit(rotate=False)
            assert report.comparable() == reference.comparable()
        db.close()

    @pytest.mark.parametrize("name", ["snapshot", "history"])
    def test_padded_worm_file_is_read_to_its_trusted_size(
            self, tmp_path, name):
        # bytes glued onto a WORM file behind the server's back lie
        # beyond the size its trusted metadata records; every reader —
        # this process and the pool workers alike — must stop there
        db = make_db(tmp_path, mode=ComplianceMode.HASH_ON_READ,
                     worm_migration=name == "history")
        populate(db)
        if name == "snapshot":
            # the snapshot that opens the next epoch holds every page
            assert Auditor(db).audit().ok
            for i in range(0, 40, 5):  # writes and reads to replay
                with db.transaction() as txn:
                    db.update(txn, "ledger", {"entry_id": i,
                                              "account": "ops",
                                              "amount": 0})
                db.get("ledger", (i + 1,))
            victim = snapshot_name(db.epoch)
        else:
            for amount in range(12):  # enough versions to time-split
                for i in range(8):
                    with db.transaction() as txn:
                        db.update(txn, "ledger", {"entry_id": i,
                                                  "account": "ops",
                                                  "amount": amount})
            victim = db.engine.histdir.all_entries()[0].ref
        before = inline(db)
        assert before.ok
        with open(db.worm._path_for(victim), "ab") as handle:
            handle.write(b"\xff" * 64)
        for workers in (0, 2):
            report = shaped(db, workers).audit(rotate=False)
            assert report.comparable() == before.comparable()
        db.close()


@st.composite
def plans(draw):
    return dict(workers=draw(st.sampled_from((0, 1, 2))),
                chunk_pages=draw(st.integers(1, 40)),
                log_slices=draw(st.integers(1, 6)))


class TestShapeInvarianceProperty:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mode=st.sampled_from(MODES), plan=plans(),
           attack=st.sampled_from([None] + sorted(ATTACKS)))
    def test_any_plan_reports_what_the_inline_plan_reports(
            self, mode, plan, attack):
        with tempfile.TemporaryDirectory() as root:
            db = make_db(Path(root), mode=mode)
            populate(db)
            if attack is not None:
                tamper(db, attack)
            reference = inline(db)
            assert reference.ok == (attack is None)
            report = Auditor(db, **plan).audit(rotate=False)
            assert report.comparable() == reference.comparable()
            db.close()


class TestDeterministicOrdering:
    def test_findings_sorted_regardless_of_discovery(self, populated):
        mala = Adversary(populated)
        mala.settle()
        mala.shred_tuple("ledger", (7,))
        mala.append_spurious_abort(txn_id=2)
        for report in (inline(populated),
                       shaped(populated, 3).audit(rotate=False)):
            keys = [f.sort_key() for f in report.findings]
            assert keys == sorted(keys)
            assert len(report.findings) >= 2

    def test_sort_key_shape(self):
        finding = Finding("code", "detail", pgno=None, phase="log")
        assert finding.sort_key() == ("log", "code", "detail", -1)


class TestInlinePlan:
    @pytest.mark.parametrize("workers", (0, 1, 2))
    def test_audit_forks_only_for_a_pool_and_persists_nothing(
            self, populated, monkeypatch, workers):
        # a verdict is assembled only from the evidence its own run
        # read: no plan may leave a file in the database directory (the
        # adversary's domain) for a later audit to pick up
        root = Path(populated.path)

        def listing():
            return sorted(path.relative_to(root)
                          for path in root.rglob("*")
                          if path.relative_to(root).parts[0] != "worm")

        def refuse(*args, **kwargs):
            raise AssertionError("an in-process plan asked for a pool")

        if workers < 2:
            monkeypatch.setattr(multiprocessing, "get_context", refuse)
        replaced = []
        real_replace = os.replace
        monkeypatch.setattr(os, "replace", lambda *args, **kwargs: (
            replaced.append(args), real_replace(*args, **kwargs)))
        before = listing()
        report = Auditor(populated, workers=workers).audit(rotate=False)
        assert report.ok and report.workers == workers
        assert replaced == []
        assert listing() == before

    def test_concurrent_in_process_audits_do_not_share_state(
            self, tmp_path):
        # the task context is passed, not global: audits of different
        # databases may overlap in one process (DistributedAuditor's
        # fan-out threads do exactly this)
        dbs = []
        for index, mode in enumerate(MODES * 2):
            db = make_db(tmp_path / str(index), mode=mode)
            populate(db, count=20 + 5 * index)
            dbs.append(db)
        expected = [inline(db).comparable() for db in dbs]
        got = [None] * len(dbs)

        def run(index):
            for _ in range(3):
                got[index] = shaped(dbs[index], 1).audit(
                    rotate=False).comparable()

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(dbs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert got == expected
        for db in dbs:
            db.close()


class _Touch:
    """Pickles to a payload that creates ``path`` when loaded."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (Path.touch, (self.path,))


class TestNoStateBetweenRuns:
    """Each audit decides from the WORM evidence it reads itself: there
    is no resume path, so nothing an earlier run saw — or a file Mala
    plants where a checkpoint used to live — can reach a verdict."""

    @pytest.mark.parametrize("keyword", (
        {"resume": True}, {"checkpoint_every": 1},
        {"checkpoint_path": "audit-checkpoint.bin"}),
        ids=("resume", "checkpoint_every", "checkpoint_path"))
    def test_resume_keywords_are_gone(self, tmp_path, keyword):
        db = make_db(tmp_path)
        with pytest.raises(TypeError):
            Auditor(db, db.auditor_key, workers=1, **keyword)
        db.close()

    @pytest.mark.parametrize("workers", (0, 1, 2))
    def test_tampering_after_a_clean_audit_is_caught(self, populated,
                                                     workers):
        # a clean run of the same plan just before Mala strikes leaves
        # nothing behind that could vouch for the pre-tamper state
        assert shaped(populated, workers).audit(rotate=False).ok
        tamper(populated, "alter")
        fresh = inline(populated)
        assert not fresh.ok
        report = shaped(populated, workers).audit(rotate=False)
        assert report.comparable() == fresh.comparable()

    @pytest.mark.parametrize("workers", (1, 2))
    def test_planted_checkpoint_is_never_loaded(self, populated, workers):
        marker = Path(populated.path).parent / "unpickled"
        payload = pickle.dumps(_Touch(marker))
        (Path(populated.path) / "audit-checkpoint.bin").write_bytes(
            b"\0" * 64 + payload)
        tamper(populated, "shred")
        fresh = inline(populated)
        assert not fresh.ok
        report = shaped(populated, workers).audit(rotate=False)
        assert report.comparable() == fresh.comparable()
        assert not marker.exists()
        pickle.loads(payload)
        assert marker.exists()  # the payload was live


class TestConfigAndGuards:
    def test_regular_mode_rejected(self, tmp_path):
        db = CompliantDB.create(
            tmp_path / "db",
            DBConfig.for_mode(ComplianceMode.REGULAR),
            clock=SimulatedClock())
        with pytest.raises(AuditError):
            Auditor(db, workers=2).audit()
        db.close()

    def test_bad_worker_count_rejected(self, populated):
        with pytest.raises(AuditError):
            Auditor(populated, workers=-1)

    def test_bad_shape_rejected(self, populated):
        with pytest.raises(AuditError):
            Auditor(populated, chunk_pages=0)
        with pytest.raises(AuditError):
            Auditor(populated, workers=2, log_slices=0)

    def test_config_knobs_validate(self):
        with pytest.raises(ConfigError):
            ComplianceConfig(audit_workers=-1).validate()

    def test_config_defaults_feed_auditor(self, tmp_path):
        db = make_db(tmp_path, audit_workers=2)
        populate(db, count=10, reads=0)
        auditor = Auditor(db)
        assert auditor._workers == 2
        assert auditor._log_slices == 2
        report = auditor.audit(rotate=False)
        assert report.ok and report.workers == 2
        db.close()

    @pytest.mark.parametrize("workers", (0, 2))
    def test_metrics_emitted(self, populated, workers):
        report = shaped(populated, workers).audit(rotate=False)
        counters = populated.metrics()["counters"]
        assert counters["audit_pages_scanned_total"] == \
            report.pages_scanned
        assert counters["audit_tasks_total"] == report.tasks_total
