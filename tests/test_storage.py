"""Tests for tuple records, slotted pages, the pager, and the buffer cache."""

import tempfile
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.codec import encode_key
from repro.common.errors import (PageFormatError, PageNotFoundError,
                                 StorageError)
from repro.storage import (FREE, INTERNAL, LEAF, META, BufferCache, Page,
                           Pager, TupleVersion, parse_page_tuples)


def make_tuple(key=1, start=100, stamped=True, eol=False, seq=0,
               payload=b"payload", relation_id=7):
    return TupleVersion(relation_id=relation_id, key=encode_key((key,)),
                        start=start, stamped=stamped, eol=eol, seq=seq,
                        payload=payload)


class TestTupleVersion:
    def test_round_trip(self):
        t = make_tuple(key=42, start=12345, seq=3, payload=b"\x00\xffdata")
        decoded, offset = TupleVersion.from_bytes(t.to_bytes())
        assert decoded == t
        assert offset == t.encoded_size()

    def test_round_trip_flags(self):
        for stamped in (False, True):
            for eol in (False, True):
                t = make_tuple(stamped=stamped, eol=eol)
                decoded, _ = TupleVersion.from_bytes(t.to_bytes())
                assert decoded.stamped == stamped
                assert decoded.eol == eol

    def test_truncated_rejected(self):
        raw = make_tuple().to_bytes()
        with pytest.raises(PageFormatError):
            TupleVersion.from_bytes(raw[:-1])

    def test_stamp_replaces_txn_id(self):
        unstamped = make_tuple(start=999, stamped=False)
        stamped = unstamped.stamp(commit_time=5000)
        assert stamped.start == 5000 and stamped.stamped
        with pytest.raises(PageFormatError):
            stamped.stamp(6000)

    def test_identity_bytes_requires_stamped(self):
        with pytest.raises(PageFormatError):
            make_tuple(stamped=False).identity_bytes()
        assert make_tuple().identity_bytes() == make_tuple().to_bytes()

    def test_sort_key_orders_versions(self):
        versions = [make_tuple(key=1, start=s) for s in (300, 100, 200)]
        ordered = sorted(versions, key=TupleVersion.sort_key)
        assert [v.start for v in ordered] == [100, 200, 300]

    def test_sequence_of_records_parses(self):
        records = [make_tuple(key=i, start=i * 10) for i in range(5)]
        blob = b"".join(r.to_bytes() for r in records)
        offset, out = 0, []
        while offset < len(blob):
            record, offset = TupleVersion.from_bytes(blob, offset)
            out.append(record)
        assert out == records

    @given(st.integers(min_value=-2**62, max_value=2**62),
           st.binary(max_size=64), st.integers(min_value=0, max_value=2**31))
    def test_round_trip_property(self, start, payload, seq):
        t = make_tuple(start=start, payload=payload, seq=seq)
        decoded, _ = TupleVersion.from_bytes(t.to_bytes())
        assert decoded == t


class TestPage:
    def test_leaf_round_trip(self):
        page = Page(5, LEAF)
        page.entries = [make_tuple(key=i, start=i) for i in range(10)]
        page.next_leaf, page.prev_leaf = 6, 4
        page.lsn = 999
        page.hist_refs = ["migrated/p5-0", "migrated/p5-1"]
        parsed = Page.from_bytes(page.to_bytes(4096))
        assert parsed.entries == page.entries
        assert parsed.next_leaf == 6 and parsed.prev_leaf == 4
        assert parsed.lsn == 999
        assert parsed.hist_refs == page.hist_refs

    def test_internal_round_trip(self):
        page = Page(3, INTERNAL, level=1)
        page.children = [10, 11, 12]
        page.seps = [(encode_key((5,)), 100), (encode_key((9,)), 200)]
        parsed = Page.from_bytes(page.to_bytes(4096))
        assert parsed.children == page.children
        assert parsed.seps == page.seps
        assert parsed.level == 1

    def test_meta_round_trip(self):
        page = Page(0, META)
        page.meta = {"catalog_root": 1, "freelist": [4, 7]}
        parsed = Page.from_bytes(page.to_bytes(4096))
        assert parsed.meta == page.meta

    def test_historical_flag_round_trip(self):
        page = Page(2, LEAF)
        page.historical = True
        assert Page.from_bytes(page.to_bytes(4096)).historical

    def test_free_page_round_trip(self):
        parsed = Page.from_bytes(Page(9, FREE).to_bytes(512))
        assert parsed.ptype == FREE and parsed.pgno == 9

    def test_bad_magic_rejected(self):
        raw = bytearray(Page(1, LEAF).to_bytes(4096))
        raw[0] ^= 0xFF
        with pytest.raises(PageFormatError):
            Page.from_bytes(bytes(raw))

    def test_overfull_page_rejected(self):
        page = Page(1, LEAF)
        page.entries = [make_tuple(key=i, payload=b"x" * 100)
                        for i in range(10)]
        with pytest.raises(PageFormatError):
            page.to_bytes(512)

    def test_fits_accounting(self):
        page = Page(1, LEAF)
        entry = make_tuple()
        while page.fits(512, extra=entry.encoded_size()):
            page.entries.append(entry)
        assert len(page.to_bytes(512)) == 512  # exactly serialisable
        page.entries.append(entry)
        with pytest.raises(PageFormatError):
            page.to_bytes(512)

    def test_internal_child_count_validated(self):
        page = Page(1, INTERNAL)
        page.children = [2]
        page.seps = [(b"k", 0)]
        with pytest.raises(PageFormatError):
            page.to_bytes(4096)

    def test_max_seq(self):
        page = Page(1, LEAF)
        assert page.max_seq() == 0
        page.entries = [make_tuple(seq=3), make_tuple(key=2, seq=9)]
        assert page.max_seq() == 9

    def test_find_slot_binary_search(self):
        page = Page(1, LEAF)
        page.entries = [make_tuple(key=k, start=s)
                        for k, s in [(1, 10), (1, 20), (3, 5)]]
        assert page.find_slot(encode_key((1,)), 15) == 1
        assert page.find_slot(encode_key((0,)), 0) == 0
        assert page.find_slot(encode_key((9,)), 0) == 3

    def test_parse_page_tuples_helper(self):
        page = Page(1, LEAF)
        page.entries = [make_tuple(key=1)]
        assert parse_page_tuples(page.to_bytes(4096)) == page.entries
        internal = Page(2, INTERNAL)
        internal.children = [1]
        assert parse_page_tuples(internal.to_bytes(4096)) == []


class TestPager:
    def test_create_writes_meta_page(self, tmp_path):
        pager = Pager(tmp_path / "db", 4096)
        assert pager.page_count == 1
        meta = Page.from_bytes(pager.read_raw(0))
        assert meta.ptype == META
        pager.close()

    def test_allocate_and_round_trip(self, tmp_path):
        pager = Pager(tmp_path / "db", 1024)
        pgno = pager.allocate()
        page = Page(pgno, LEAF)
        page.entries = [make_tuple()]
        pager.write_page(pgno, page.to_bytes(1024))
        assert Page.from_bytes(pager.read_page(pgno)).entries == page.entries
        pager.close()

    def test_hooks_fire_in_order(self, tmp_path):
        pager = Pager(tmp_path / "db", 1024)
        events = []
        pager.pread_hooks.append(lambda pgno, raw: events.append(("r", pgno)))
        pager.pwrite_hooks.append(
            lambda pgno, raw: events.append(("w", pgno)))
        pgno = pager.allocate()
        pager.write_page(pgno, Page(pgno, LEAF).to_bytes(1024))
        pager.read_page(pgno)
        assert events == [("w", pgno), ("r", pgno)]
        pager.close()

    def test_write_hook_fires_before_disk_write(self, tmp_path):
        # The compliance protocol requires records on WORM *before* the data
        # page hits disk; the hook must therefore observe the OLD disk state.
        pager = Pager(tmp_path / "db", 1024)
        pgno = pager.allocate()
        old_on_disk = []
        pager.pwrite_hooks.append(
            lambda p, raw: old_on_disk.append(pager.read_raw(p)))
        new = Page(pgno, LEAF)
        new.entries = [make_tuple()]
        pager.write_page(pgno, new.to_bytes(1024))
        assert Page.from_bytes(old_on_disk[0]).ptype == FREE

    def test_raw_io_bypasses_hooks(self, tmp_path):
        pager = Pager(tmp_path / "db", 1024)
        events = []
        pager.pread_hooks.append(lambda *a: events.append("r"))
        pager.pwrite_hooks.append(lambda *a: events.append("w"))
        pgno = pager.allocate()
        pager.write_raw(pgno, Page(pgno, LEAF).to_bytes(1024))  # repro-lint: disable=barrier-dominance -- deliberately exercising the raw seam to prove hooks do NOT fire
        pager.read_raw(pgno)
        assert events == []

    def test_out_of_range_page(self, tmp_path):
        pager = Pager(tmp_path / "db", 1024)
        with pytest.raises(PageNotFoundError):
            pager.read_page(5)
        with pytest.raises(PageNotFoundError):
            pager.read_page(-1)

    def test_wrong_size_write_rejected(self, tmp_path):
        pager = Pager(tmp_path / "db", 1024)
        with pytest.raises(StorageError):
            pager.write_page(0, b"short")

    def test_reopen_existing_file(self, tmp_path):
        pager = Pager(tmp_path / "db", 1024)
        pgno = pager.allocate()
        page = Page(pgno, LEAF)
        page.entries = [make_tuple(key=77)]
        pager.write_page(pgno, page.to_bytes(1024))
        pager.close()
        reopened = Pager(tmp_path / "db", 1024)
        assert reopened.page_count == 2
        assert Page.from_bytes(
            reopened.read_raw(pgno)).entries == page.entries
        reopened.close()


class TestBufferCache:
    def make(self, tmp_path, capacity=4, page_size=1024):
        pager = Pager(tmp_path / "db", page_size)
        return pager, BufferCache(pager, capacity)

    def test_hit_and_miss_counting(self, tmp_path):
        pager, cache = self.make(tmp_path)
        page = cache.new_page(LEAF)
        cache.flush_page(page.pgno)
        cache.drop_all()
        cache.get(page.pgno)
        cache.get(page.pgno)
        assert cache.obs.registry.value("buffer_misses_total") == 1
        assert cache.obs.registry.value("buffer_hits_total") == 1

    def test_new_page_is_dirty_and_cached(self, tmp_path):
        pager, cache = self.make(tmp_path)
        page = cache.new_page(LEAF)
        assert page.dirty
        assert cache.get(page.pgno) is page

    def test_flush_persists_and_cleans(self, tmp_path):
        pager, cache = self.make(tmp_path)
        page = cache.new_page(LEAF)
        page.entries = [make_tuple()]
        cache.flush_page(page.pgno)
        assert not page.dirty
        assert Page.from_bytes(
            pager.read_raw(page.pgno)).entries == page.entries

    def test_flush_all_returns_count(self, tmp_path):
        pager, cache = self.make(tmp_path, capacity=16)
        for _ in range(3):
            cache.new_page(LEAF)
        assert cache.flush_all() == 3
        assert cache.flush_all() == 0

    def test_eviction_prefers_clean_pages_in_window(self, tmp_path):
        # capacity 8: window 2, steal batch 1
        pager, cache = self.make(tmp_path, capacity=8)
        dirty = cache.new_page(LEAF)
        clean = cache.new_page(LEAF)
        cache.flush_page(clean.pgno)
        for _ in range(6):
            cache.new_page(LEAF)
        cache.new_page(LEAF)
        cache.maybe_evict()  # the window is [dirty, clean]: clean goes
        assert clean.pgno not in cache._pages
        assert dirty.pgno in cache.dirty_pgnos()
        assert cache.obs.registry.value("buffer_evictions_total") == 1

    def test_recent_clean_page_outlives_older_dirty_page(self, tmp_path):
        pager, cache = self.make(tmp_path, capacity=8)
        hot = cache.new_page(LEAF)
        cache.flush_page(hot.pgno)
        old_dirty = cache.new_page(LEAF)
        for _ in range(6):
            cache.new_page(LEAF)
        cache.get(hot.pgno)  # touched: now the youngest page
        cache.new_page(LEAF)
        cache.maybe_evict()  # window [old_dirty, fresh] is all dirty
        assert cache.get(hot.pgno) is hot
        assert old_dirty.pgno not in cache._pages
        assert not old_dirty.dirty  # stolen: written back, then evicted

    def test_all_dirty_window_costs_one_flush_batch(self, tmp_path):
        pager, cache = self.make(tmp_path, capacity=16)  # W 4, slack 2
        pages = [cache.new_page(LEAF) for _ in range(16)]
        batches = []
        original = cache._flush_batch
        cache._flush_batch = lambda pgnos, reason: (
            batches.append((list(pgnos), reason)), original(pgnos, reason))
        cache.new_page(LEAF)
        cache.maybe_evict()
        assert batches == [([pages[0].pgno, pages[1].pgno], "evict")]
        cache.new_page(LEAF)
        cache.maybe_evict()  # the second stolen page is the clean victim
        assert len(batches) == 1
        assert cache.obs.registry.value("buffer_evictions_total") == 2

    def test_steal_is_one_compliance_barrier_in_log_consistent(self, tmp_path):
        from repro import (ComplianceConfig, ComplianceMode, CompliantDB,
                           DBConfig, EngineConfig, Field, FieldType, Schema,
                           SimulatedClock)
        db = CompliantDB.create(
            tmp_path / "db", clock=SimulatedClock(),
            config=DBConfig(
                engine=EngineConfig(page_size=1024, buffer_pages=12),
                compliance=ComplianceConfig(
                    mode=ComplianceMode.LOG_CONSISTENT)))
        db.create_relation(Schema("rows", [Field("k", FieldType.INT),
                                           Field("v", FieldType.INT)],
                                  key_fields=["k"]))
        buffer, registry = db.engine.buffer, db.obs.registry
        barriers = []
        original = buffer._flush_batch

        def counting(pgnos, reason):
            before = registry.value("clog_barrier_flushes_total")
            original(pgnos, reason)
            if reason == "evict":
                barriers.append(
                    registry.value("clog_barrier_flushes_total") - before)
        buffer._flush_batch = counting
        for batch in range(40):
            with db.transaction() as txn:
                for i in range(8):
                    db.insert(txn, "rows", {"k": batch * 8 + i, "v": batch})
        # a steal drains the buffered compliance records in at most one
        # WORM barrier, however many pages (and split groups) it writes
        assert 1 in barriers and set(barriers) <= {0, 1}
        assert buffer.obs.registry.value(
            "buffer_writeback_batches_total",
            reason="evict") == len(barriers)
        db.close()

    def test_steal_flushes_dirty_victim(self, tmp_path):
        pager, cache = self.make(tmp_path, capacity=2)
        first = cache.new_page(LEAF)
        first.entries = [make_tuple(key=1)]
        cache.new_page(LEAF)
        cache.new_page(LEAF)
        cache.maybe_evict()  # all dirty: the LRU dirty page is stolen
        on_disk = Page.from_bytes(pager.read_raw(first.pgno))
        assert on_disk.entries == first.entries

    def test_pinned_pages_survive_eviction(self, tmp_path):
        pager, cache = self.make(tmp_path, capacity=2)
        pinned = cache.new_page(LEAF)
        cache.pin(pinned.pgno)
        for _ in range(4):
            cache.new_page(LEAF)
        assert cache.get(pinned.pgno) is pinned
        cache.unpin(pinned.pgno)

    def test_pinned_group_member_shields_whole_group(self, tmp_path):
        pager, cache = self.make(tmp_path, capacity=8)
        grouped = [cache.new_page(LEAF) for _ in range(2)]
        young = cache.new_page(LEAF)
        cache.pin(young.pgno)
        cache.note_group([page.pgno for page in grouped] + [young.pgno])
        for _ in range(12):
            cache.new_page(LEAF)
        cache.maybe_evict()  # the oldest pages are all in a pinned group
        for page in grouped + [young]:
            assert cache._pages.get(page.pgno) is page and page.dirty
        cache.unpin(young.pgno)
        cache.new_page(LEAF)
        cache.maybe_evict()  # unpinned: the group is stolen as one batch
        assert grouped[0].pgno not in cache._pages
        assert not any(page.dirty for page in grouped + [young])

    def test_stolen_victim_flushes_its_split_group_atomically(self, tmp_path):
        pager, cache = self.make(tmp_path, capacity=8)
        victim = cache.new_page(LEAF)
        filler = [cache.new_page(LEAF) for _ in range(6)]
        sibling = cache.new_page(LEAF)
        for page in (victim, sibling):
            page.entries = [make_tuple(key=page.pgno)]
        cache.note_group([victim.pgno, sibling.pgno])
        batches = []
        original = cache._flush_batch
        cache._flush_batch = lambda pgnos, reason: (
            batches.append(list(pgnos)), original(pgnos, reason))
        cache.new_page(LEAF)
        cache.maybe_evict()
        assert batches == [[victim.pgno, sibling.pgno]]
        assert not sibling.dirty and all(page.dirty for page in filler)
        for page in (victim, sibling):
            assert Page.from_bytes(
                pager.read_raw(page.pgno)).entries == page.entries

    def test_atomic_group_flushes_together(self, tmp_path):
        pager, cache = self.make(tmp_path, capacity=16)
        a, b, c = (cache.new_page(LEAF) for _ in range(3))
        cache.note_group([a.pgno, b.pgno])
        cache.note_group([b.pgno, c.pgno])  # merges into one group
        cache.flush_page(a.pgno)
        assert not a.dirty and not b.dirty and not c.dirty

    def test_before_flush_hook_sees_page(self, tmp_path):
        pager, cache = self.make(tmp_path)
        seen = []
        cache.before_flush = lambda page: seen.append(page.pgno)
        page = cache.new_page(LEAF)
        cache.flush_page(page.pgno)
        assert seen == [page.pgno]

    def test_drop_all_loses_unflushed_data(self, tmp_path):
        pager, cache = self.make(tmp_path)
        page = cache.new_page(LEAF)
        page.entries = [make_tuple()]
        pgno = page.pgno
        cache.drop_all()
        assert Page.from_bytes(pager.read_raw(pgno)).ptype == FREE

    def test_free_page(self, tmp_path):
        pager, cache = self.make(tmp_path)
        page = cache.new_page(LEAF)
        page.entries = [make_tuple()]
        cache.free_page(page.pgno)
        cache.flush_page(page.pgno)
        assert Page.from_bytes(pager.read_raw(page.pgno)).ptype == FREE


def reference_lru_misses(capacity, accesses):
    """Misses of a textbook LRU that, like the cache, evicts before it
    inserts and so holds at most ``capacity + 1`` pages."""
    cache, misses = OrderedDict(), 0
    for pgno in accesses:
        if pgno in cache:
            cache.move_to_end(pgno)
            continue
        misses += 1
        while len(cache) > capacity:
            cache.popitem(last=False)
        cache[pgno] = None
    return misses


@settings(max_examples=60, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=8),
       accesses=st.lists(st.integers(min_value=0, max_value=11),
                         max_size=80))
def test_clean_cache_misses_match_reference_lru(capacity, accesses):
    with tempfile.TemporaryDirectory() as root:
        pager = Pager(Path(root) / "db", 1024)
        pgnos = [pager.allocate() for _ in range(12)]
        for pgno in pgnos:
            pager.write_page(pgno, Page(pgno, LEAF).to_bytes(1024))
        cache = BufferCache(pager, capacity)
        for index in accesses:
            cache.get(pgnos[index])
        assert cache.obs.registry.value("buffer_misses_total") == \
            reference_lru_misses(capacity, accesses)
        pager.close()
