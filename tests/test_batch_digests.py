"""Property tests for the batched digest path.

The fast lanes added for the hash-page-on-read hot path — ``add_many``
batched folds, the zero-copy page extent walk, and the ``DigestPool``
entry points — must be *byte-identical* to the per-item reference paths
at every setting: stamped or lazily timestamped, empty or full.  These
tests pin that invariant down, because a single divergent digest turns
into a false audit failure.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (ComplianceConfig, ComplianceMode, CompliantDB, DBConfig,
                   EngineConfig, Field, FieldType, Schema, SimulatedClock,
                   minutes)
from repro.common.errors import PageFormatError
from repro.core import Auditor
from repro.crypto import (HASH_STATS, AddHash, DigestPool, SeqHash, h,
                          seq_hash_page)
from repro.crypto.batch import page_items, seq_hash_page_resumed
from repro.obs import MetricsRegistry
from repro.storage.page import INTERNAL, LEAF, Page, leaf_tuple_extents
from repro.storage.record import TupleVersion

# -- strategies ---------------------------------------------------------------

buffers = st.binary(max_size=48)

tuple_versions = st.builds(
    TupleVersion,
    relation_id=st.integers(min_value=0, max_value=500),
    key=st.binary(min_size=1, max_size=8),
    start=st.integers(min_value=1, max_value=2**40),
    stamped=st.booleans(),
    eol=st.booleans(),
    seq=st.integers(min_value=0, max_value=10_000),
    payload=st.binary(max_size=24),
)


def make_leaf(entries, pgno=1, page_size=4096, hist_refs=()):
    page = Page(pgno, LEAF)
    page.entries = list(entries)
    page.hist_refs = list(hist_refs)
    return page.to_bytes(page_size)


def reference_page_digest(raw, resolve=None):
    """The slow per-tuple path seq_hash_page must match byte-for-byte."""
    page = Page.from_bytes(raw)
    items = []
    unresolved = set()
    for version in sorted(page.entries, key=lambda e: e.seq):
        if not version.stamped:
            commit_time = resolve(version.start) if resolve else None
            if commit_time is None:
                unresolved.add(version.start)
            else:
                version = version.stamp(commit_time)
        items.append(version.to_bytes())
    return SeqHash(items).digest(), frozenset(unresolved)


# -- batched folds ------------------------------------------------------------

class TestAddMany:
    @given(st.lists(buffers, max_size=30))
    def test_seq_hash_add_many_matches_loop(self, items):
        loop = SeqHash()
        for item in items:
            loop.add(item)
        assert SeqHash().add_many(items).digest() == loop.digest()

    @given(st.lists(buffers, max_size=30))
    def test_add_hash_add_many_matches_loop(self, items):
        loop = AddHash()
        for item in items:
            loop.add(item)
        batched = AddHash().add_many(items)
        assert batched == loop
        assert batched.count == len(items)

    def test_add_many_accepts_memoryviews(self):
        items = [b"alpha", b"beta"]
        views = [memoryview(item) for item in items]
        assert SeqHash().add_many(views).digest() == \
            SeqHash(items).digest()
        assert AddHash().add_many(views) == AddHash(items)

    def test_add_many_chains(self):
        assert SeqHash().add_many([b"a"]).add_many([b"b"]).digest() == \
            SeqHash([b"a", b"b"]).digest()


# -- zero-copy page walk ------------------------------------------------------

class TestSeqHashPage:
    def test_empty_page(self):
        digest, unresolved = seq_hash_page(make_leaf([]))
        assert digest == SeqHash().digest()
        assert unresolved == frozenset()

    @settings(max_examples=50)
    @given(st.lists(tuple_versions, max_size=8))
    def test_matches_per_tuple_reference(self, entries):
        raw = make_leaf(entries)
        assert seq_hash_page(raw) == reference_page_digest(raw)

    @settings(max_examples=50)
    @given(st.lists(tuple_versions, max_size=8),
           st.dictionaries(st.integers(min_value=1, max_value=2**40),
                           st.integers(min_value=1, max_value=2**40),
                           max_size=8))
    def test_commit_time_substitution_matches(self, entries, commit_map):
        # stamp some of the unstamped tuples through the resolver, leave
        # the rest unresolved — both lanes of the substitution logic
        raw = make_leaf(entries)
        assert seq_hash_page(raw, commit_map.get) == \
            reference_page_digest(raw, commit_map.get)

    def test_unresolved_reports_unknown_txns_only(self):
        entries = [
            TupleVersion(1, b"a", 100, True, False, 1, b"x"),
            TupleVersion(1, b"b", 7, False, False, 2, b"y"),
            TupleVersion(1, b"c", 8, False, False, 3, b"z"),
        ]
        raw = make_leaf(entries)
        _, unresolved = seq_hash_page(raw, {7: 555}.get)
        assert unresolved == frozenset({8})

    def test_hist_refs_are_skipped_not_hashed(self):
        # a time-split leaf carries WORM refs before its tuples; the
        # extent walk must skip them and hash the same tuple bytes
        entries = [TupleVersion(1, b"a", 100, True, False, 1, b"x")]
        plain = make_leaf(entries)
        split = make_leaf(entries, hist_refs=["rel1-p1-0.worm"])
        assert seq_hash_page(plain) == seq_hash_page(split)

    def test_extents_are_canonical_bytes(self):
        entries = [TupleVersion(3, b"k1", 10, True, False, 2, b"pay"),
                   TupleVersion(3, b"k2", 11, False, True, 1, b"")]
        raw = make_leaf(entries)
        extents = leaf_tuple_extents(raw)
        assert [bytes(e.raw) for e in extents] == \
            [e.to_bytes() for e in entries]
        assert all(isinstance(e.raw, memoryview) for e in extents)

    def test_non_leaf_rejected(self):
        page = Page(2, INTERNAL)
        page.children = [1]
        with pytest.raises(PageFormatError):
            seq_hash_page(page.to_bytes(1024))

    def test_truncated_page_rejected(self):
        raw = make_leaf([TupleVersion(1, b"a", 1, True, False, 1, b"x")])
        with pytest.raises(PageFormatError):
            seq_hash_page(raw[:40])


def _with_seqs(entries, start_seq):
    """Copies of ``entries`` renumbered with consecutive order numbers."""
    return [TupleVersion(v.relation_id, v.key, v.start, v.stamped,
                         v.eol, start_seq + i, v.payload)
            for i, v in enumerate(entries)]


class TestSeqHashPageResumed:
    """The chain-resume fast lane must equal the full fold, always."""

    @settings(max_examples=50)
    @given(st.lists(tuple_versions, max_size=6),
           st.lists(tuple_versions, min_size=1, max_size=6))
    def test_grown_page_resumes_to_identical_digest(self, base, extra):
        # seqs only ever grow, so a grown page is old items + suffix
        old = _with_seqs(base, 0)
        grown = old + _with_seqs(extra, len(old))
        prev_digest, _, prev_items = seq_hash_page_resumed(
            make_leaf(old), None, None, None)
        raw = make_leaf(grown)
        digest, unresolved, items = seq_hash_page_resumed(
            raw, None, prev_items, prev_digest)
        assert (digest, unresolved) == seq_hash_page(raw)
        assert items == page_items(raw)[0]

    def test_unchanged_page_returns_previous_digest(self):
        raw = make_leaf(_with_seqs(
            [TupleVersion(1, b"a", 9, True, False, 0, b"x"),
             TupleVersion(1, b"b", 9, True, False, 0, b"y")], 0))
        prev_digest, _, prev_items = seq_hash_page_resumed(
            raw, None, None, None)
        digest, _, _ = seq_hash_page_resumed(
            raw, None, prev_items, prev_digest)
        assert digest == prev_digest

    @settings(max_examples=50)
    @given(st.lists(tuple_versions, min_size=1, max_size=6),
           st.binary(min_size=1, max_size=8))
    def test_mutated_prefix_falls_back_to_full_fold(self, base, tweak):
        old = _with_seqs(base, 0)
        prev_digest, _, prev_items = seq_hash_page_resumed(
            make_leaf(old), None, None, None)
        head = old[0]
        mutated = [TupleVersion(head.relation_id, head.key + tweak,
                                head.start, head.stamped, head.eol,
                                head.seq, head.payload)] + old[1:]
        raw = make_leaf(mutated)
        digest, unresolved, _ = seq_hash_page_resumed(
            raw, None, prev_items, prev_digest)
        assert (digest, unresolved) == seq_hash_page(raw)

    def test_shrunk_page_falls_back_to_full_fold(self):
        old = _with_seqs(
            [TupleVersion(1, b"a", 9, True, False, 0, b"x"),
             TupleVersion(1, b"b", 9, True, False, 0, b"y")], 0)
        prev_digest, _, prev_items = seq_hash_page_resumed(
            make_leaf(old), None, None, None)
        raw = make_leaf(old[:1])
        digest, unresolved, _ = seq_hash_page_resumed(
            raw, None, prev_items, prev_digest)
        assert (digest, unresolved) == seq_hash_page(raw)

    def test_resolved_substitution_falls_back_to_full_fold(self):
        # the last fold hashed txn 7's tuple unstamped; once the commit
        # map learns its time the freshly substituted prefix no longer
        # byte-matches, so the resume must not reuse the stale chain
        old = _with_seqs(
            [TupleVersion(1, b"a", 7, False, False, 0, b"x"),
             TupleVersion(1, b"b", 9, True, False, 0, b"y")], 0)
        raw = make_leaf(old)
        prev_digest, prev_unresolved, prev_items = seq_hash_page_resumed(
            raw, None, None, None)
        assert prev_unresolved == frozenset({7})
        grown = old + _with_seqs(
            [TupleVersion(1, b"c", 9, True, False, 0, b"z")], len(old))
        grown_raw = make_leaf(grown)
        resolve = {7: 555}.get
        digest, unresolved, _ = seq_hash_page_resumed(
            grown_raw, resolve, prev_items, prev_digest)
        assert (digest, unresolved) == seq_hash_page(grown_raw, resolve)
        assert (digest, unresolved) == \
            reference_page_digest(grown_raw, resolve)
        assert unresolved == frozenset()

    def test_resume_skips_already_chained_work(self):
        # the point of the lane: folding a grown page re-hashes only the
        # suffix, observable as fewer sha512 compressions
        old = _with_seqs(
            [TupleVersion(1, bytes([i]), 9, True, False, 0, b"p" * 16)
             for i in range(64)], 0)
        prev_digest, _, prev_items = seq_hash_page_resumed(
            make_leaf(old), None, None, None)
        grown_raw = make_leaf(old + _with_seqs(
            [TupleVersion(1, b"new", 9, True, False, 0, b"q")], len(old)))
        before = HASH_STATS.snapshot()["sha512_calls"]
        seq_hash_page_resumed(grown_raw, None, prev_items, prev_digest)
        resumed_calls = HASH_STATS.snapshot()["sha512_calls"] - before
        before = HASH_STATS.snapshot()["sha512_calls"]
        seq_hash_page(grown_raw)
        full_calls = HASH_STATS.snapshot()["sha512_calls"] - before
        assert resumed_calls < full_calls


# -- the digest pool ----------------------------------------------------------

class TestDigestPool:
    def test_h_matches_module_h(self):
        assert DigestPool().h(b"abc") == h(b"abc")

    def test_h_many_matches_module_h(self):
        # page-sized buffers and small ones, in input order
        bufs = [b"small", b"x" * 2048, b"", b"y" * 4096, b"mid" * 100]
        assert DigestPool().h_many(bufs) == [h(b) for b in bufs]

    def test_seq_hash_pages_matches_per_page_fold(self):
        pages = [make_leaf([TupleVersion(1, bytes([i]), 10 + i, True,
                                         False, i, b"p" * i)], pgno=i)
                 for i in range(1, 6)]
        pages.append(b"\x00" * 512)  # malformed: must come back as None
        digests = DigestPool().seq_hash_pages(pages)
        assert digests[-1] is None
        assert digests[:-1] == [seq_hash_page(p) for p in pages[:-1]]

    @settings(max_examples=20)
    @given(st.lists(buffers, min_size=64, max_size=200))
    def test_add_hash_many_matches_add_hash(self, items):
        assert DigestPool().add_hash_many(items) == AddHash(items)

    def test_add_hash_many_accepts_iterables(self):
        items = {i: bytes([i]) * 3 for i in range(100)}
        assert DigestPool().add_hash_many(items.values()) == \
            AddHash(items.values())  # repro-lint: disable=replay-determinism -- ADD-HASH is commutative; the test asserts pool == direct on the same view

    def test_inline_counter_counts_digest_units(self):
        registry = MetricsRegistry()
        pool = DigestPool(registry=registry)
        pool.h(b"a")
        pool.h_many([b"x" * 2048] * 3)
        pool.add_hash_many([b"i"] * 100)
        counters = registry.snapshot()["counters"]
        assert counters["digest_pool_inline_total"] == 104


# -- hash accounting under threads --------------------------------------------

class TestHashStatsThreadSafety:
    def test_concurrent_hashing_is_counted_and_crash_free(self):
        before = HASH_STATS.snapshot()["sha512_calls"]
        per_thread = 200

        def worker(base):
            for i in range(per_thread):
                h(b"%d:%d" % (base, i))

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        after = HASH_STATS.snapshot()["sha512_calls"]
        assert after - before >= 4 * per_thread

    def test_h_accepts_memoryview_and_large_buffers(self):
        import hashlib
        assert h(memoryview(b"abc")) == hashlib.sha512(b"abc").digest()
        big = b"z" * 4096
        assert h(memoryview(big)) == hashlib.sha512(big).digest()


# -- end-to-end: prefetch batches and database markers -----------------------

ROWS = Schema("rows", [
    Field("k", FieldType.INT),
    Field("v", FieldType.STR),
], key_fields=["k"])


def make_db(path):
    config = DBConfig(engine=EngineConfig(page_size=1024, buffer_pages=64),
                      compliance=ComplianceConfig(
                          mode=ComplianceMode.HASH_ON_READ,
                          regret_interval=minutes(5)))
    db = CompliantDB.create(path, config, clock=SimulatedClock())
    db.create_relation(ROWS)
    return db


class TestEngineIntegration:
    def test_prefetch_warms_cache_and_hashes_once(self, tmp_path):
        db = make_db(tmp_path / "db")
        for k in range(40):
            with db.transaction() as txn:
                db.insert(txn, "rows", {"k": k, "v": "pad" * 4})
        db.engine.run_stamper()
        db.engine.checkpoint()
        db.engine.buffer.drop_all()
        loaded = db.engine.buffer.prefetch(
            range(1, db.engine.pager.page_count))
        assert loaded > 0
        hashed = db.clog.record_counts().get("READ_HASH", 0)
        assert hashed > 0
        for k in range(40):            # warm: no further pread, no records
            db.get("rows", (k,))
        assert db.clog.record_counts().get("READ_HASH", 0) == hashed
        db.close()

    def test_insert_many_matches_per_row_inserts(self, tmp_path):
        loop_db = make_db(tmp_path / "loop")
        batch_db = make_db(tmp_path / "batch")
        rows = [{"k": k, "v": f"v{k}"} for k in range(25)]
        with loop_db.transaction() as txn:
            for row in rows:
                loop_db.insert(txn, "rows", row)
        with batch_db.transaction() as txn:
            batch_db.insert_many(txn, "rows", rows)
        for db in (loop_db, batch_db):
            db.engine.run_stamper()
            db.engine.checkpoint()
        loop_pages = loop_db.engine.pager.page_count
        assert batch_db.engine.pager.page_count == loop_pages
        for k in range(25):
            assert batch_db.get("rows", (k,)) == loop_db.get("rows", (k,))
        loop_db.close()
        batch_db.close()

    @pytest.mark.parametrize("section, dropped", [
        ("engine", {"hash_workers": 2, "stamper_batch": 64}),
        ("engine", {"eager_timestamping": True}),
        ("obs", {"enabled": False}),
        ("obs", {"sanitize": True}),
        ("obs", {"latency_buckets": [0.5, 1.0]}),
    ], ids=lambda case: case if isinstance(case, str) else "+".join(case))
    def test_marker_from_a_build_with_dropped_knobs_opens(
            self, tmp_path, section, dropped):
        # upgrade path: a mode.json written by a build that still had a
        # knob this one dropped opens, reads its rows back, audits clean
        # and keeps counting
        import json
        db = make_db(tmp_path / "db")
        with db.transaction() as txn:
            for k in range(10):
                db.insert(txn, "rows", {"k": k, "v": f"v{k}"})
        db.close()
        marker_path = tmp_path / "db" / "mode.json"
        marker = json.loads(marker_path.read_text())
        marker[section].update(dropped)
        marker_path.write_text(json.dumps(marker))
        reopened = CompliantDB.open(tmp_path / "db", SimulatedClock())
        reopened.recover()
        for knob in dropped:
            assert not hasattr(getattr(reopened.config, section), knob)
        for k in range(10):
            assert reopened.get("rows", (k,)) == {"k": k, "v": f"v{k}"}
        report = Auditor(reopened).audit()
        assert report.ok, report.summary()
        assert reopened.metrics()["counters"]
        reopened.close()
