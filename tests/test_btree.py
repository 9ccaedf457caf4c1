"""Tests for the B+-tree: inserts, splits, scans, removal, stamping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import MAX_START, BPlusTree, check_tree
from repro.common.codec import encode_key
from repro.common.errors import DuplicateKeyError, KeyNotFoundError
from repro.storage import BufferCache, Page, Pager, TupleVersion

PAGE_SIZE = 512  # small pages force deep trees quickly


def make_tree(tmp_path, page_size=PAGE_SIZE, capacity=64, assign_seq=False):
    pager = Pager(tmp_path / "db", page_size)
    buffer = BufferCache(pager, capacity)
    tree = BPlusTree.create(buffer, page_size, relation_id=1,
                            assign_seq=assign_seq)
    return tree, buffer, pager


def tv(key, start=1, payload=b"p", stamped=True, eol=False, rel=1):
    return TupleVersion(relation_id=rel, key=encode_key((key,)),
                        start=start, stamped=stamped, eol=eol, seq=0,
                        payload=payload)


def fetcher(buffer):
    return lambda pgno: buffer.get(pgno)


class TestBasicOps:
    def test_insert_and_get(self, tmp_path):
        tree, buffer, _ = make_tree(tmp_path)
        tree.insert(tv(5, start=10))
        found = tree.get_version(encode_key((5,)), 10)
        assert found is not None and found.payload == b"p"
        assert tree.get_version(encode_key((5,)), 11) is None

    def test_duplicate_rejected(self, tmp_path):
        tree, _, _ = make_tree(tmp_path)
        tree.insert(tv(5, start=10))
        with pytest.raises(DuplicateKeyError):
            tree.insert(tv(5, start=10))

    def test_versions_ordered(self, tmp_path):
        tree, _, _ = make_tree(tmp_path)
        for start in (30, 10, 20):
            tree.insert(tv(7, start=start, payload=str(start).encode()))
        versions = tree.versions(encode_key((7,)))
        assert [v.start for v in versions] == [10, 20, 30]

    def test_last_version(self, tmp_path):
        tree, _, _ = make_tree(tmp_path)
        assert tree.last_version(encode_key((7,))) is None
        for start in (10, 20, 30):
            tree.insert(tv(7, start=start))
        tree.insert(tv(8, start=5))
        assert tree.last_version(encode_key((7,))).start == 30
        assert tree.last_version(encode_key((8,))).start == 5

    def test_remove(self, tmp_path):
        tree, _, _ = make_tree(tmp_path)
        tree.insert(tv(5, start=10))
        removed = tree.remove(encode_key((5,)), 10)
        assert removed.start == 10
        assert tree.get_version(encode_key((5,)), 10) is None
        with pytest.raises(KeyNotFoundError):
            tree.remove(encode_key((5,)), 10)

    def test_stamp_in_place(self, tmp_path):
        tree, _, _ = make_tree(tmp_path)
        tree.insert(tv(5, start=1000, stamped=False))
        stamped = tree.stamp(encode_key((5,)), 1000, 2000)
        assert stamped.start == 2000 and stamped.stamped
        assert tree.get_version(encode_key((5,)), 2000) == stamped
        with pytest.raises(KeyNotFoundError):
            tree.stamp(encode_key((5,)), 1000, 2000)

    def test_range_scan(self, tmp_path):
        tree, _, _ = make_tree(tmp_path)
        for key in range(20):
            tree.insert(tv(key, start=1))
        got = tree.range_scan(encode_key((5,)), encode_key((9,)))
        assert [v.key for v in got] == [encode_key((k,)) for k in (5, 6, 7,
                                                                   8)]
        unbounded = tree.range_scan(encode_key((18,)), None)
        assert len(unbounded) == 2


class TestSplits:
    def test_many_inserts_stay_sorted(self, tmp_path):
        tree, buffer, _ = make_tree(tmp_path)
        import random
        rng = random.Random(7)
        keys = list(range(500))
        rng.shuffle(keys)
        for key in keys:
            tree.insert(tv(key, start=1))
        entries = tree.iter_entries()
        assert [e.key for e in entries] == \
            [encode_key((k,)) for k in range(500)]
        assert tree.height() >= 3
        assert check_tree(fetcher(buffer), tree.root_pgno) == []

    def test_root_pgno_never_changes(self, tmp_path):
        tree, _, _ = make_tree(tmp_path)
        root = tree.root_pgno
        for key in range(300):
            tree.insert(tv(key, start=1))
        assert tree.root_pgno == root
        assert tree.height() > 1

    def test_split_events_fire(self, tmp_path):
        tree, _, _ = make_tree(tmp_path)
        events = []
        tree.split_listeners.append(events.append)
        for key in range(200):
            tree.insert(tv(key, start=1))
        assert events, "expected at least one split"
        leaf_events = [e for e in events if not e.is_index]
        event = leaf_events[0]
        combined = event.left_entries + event.right_entries
        assert combined == sorted(combined, key=TupleVersion.sort_key)
        assert event.sep == event.right_entries[0].sort_key()

    def test_index_split_events(self, tmp_path):
        tree, _, _ = make_tree(tmp_path)
        events = []
        tree.split_listeners.append(events.append)
        for key in range(800):
            tree.insert(tv(key, start=1))
        assert any(e.is_index for e in events)

    def test_leaf_chain_after_splits(self, tmp_path):
        tree, buffer, _ = make_tree(tmp_path)
        for key in range(300):
            tree.insert(tv(key, start=1))
        pgnos = tree.leaf_pgnos()
        assert len(pgnos) == len(set(pgnos))
        assert len(pgnos) > 1

    def test_survives_flush_and_reload(self, tmp_path):
        tree, buffer, pager = make_tree(tmp_path, capacity=16)
        for key in range(300):
            tree.insert(tv(key, start=1))
        buffer.flush_all()
        buffer.drop_all()
        reloaded = BPlusTree(buffer, tree.root_pgno, PAGE_SIZE,
                             relation_id=1)
        assert len(reloaded.iter_entries()) == 300
        assert check_tree(
            lambda p: Page.from_bytes(pager.read_raw(p)),
            tree.root_pgno) == []

    def test_tiny_buffer_exercises_steal(self, tmp_path):
        tree, buffer, pager = make_tree(tmp_path, capacity=8)
        for key in range(400):
            tree.insert(tv(key, start=1))
        assert buffer.obs.registry.value("buffer_evictions_total") > 0
        buffer.flush_all()
        assert check_tree(
            lambda p: Page.from_bytes(pager.read_raw(p)),
            tree.root_pgno) == []

    def test_assign_seq_mode(self, tmp_path):
        tree, _, _ = make_tree(tmp_path, assign_seq=True)
        first = tree.insert(tv(1, start=1))
        second = tree.insert(tv(2, start=1))
        assert first.seq == 1
        assert second.seq == 2


class TestModelBased:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=60),
                  st.integers(min_value=1, max_value=1000)),
        min_size=1, max_size=150))
    def test_matches_dict_model(self, tmp_path_factory, ops):
        tmp_path = tmp_path_factory.mktemp("model")
        tree, buffer, _ = make_tree(tmp_path, capacity=16)
        model = {}
        for key, start in ops:
            record = tv(key, start=start, payload=f"{key}:{start}".encode())
            if (record.key, start) in model:
                with pytest.raises(DuplicateKeyError):
                    tree.insert(record)
            else:
                tree.insert(record)
                model[(record.key, start)] = record
        stored = tree.iter_entries()
        assert len(stored) == len(model)
        assert sorted(model) == [(e.key, e.start) for e in stored]
        assert check_tree(fetcher(buffer), tree.root_pgno) == []
        for (key, start), record in model.items():
            assert tree.get_version(key, start) == record


class TestRemovalHeavy:
    def test_remove_everything(self, tmp_path):
        tree, buffer, _ = make_tree(tmp_path)
        for key in range(150):
            tree.insert(tv(key, start=1))
        for key in range(150):
            tree.remove(encode_key((key,)), 1)
        assert tree.iter_entries() == []
        assert check_tree(fetcher(buffer), tree.root_pgno) == []

    def test_interleaved_insert_remove(self, tmp_path):
        tree, buffer, _ = make_tree(tmp_path)
        for key in range(200):
            tree.insert(tv(key, start=1))
            if key % 3 == 0:
                tree.remove(encode_key((key,)), 1)
        remaining = tree.iter_entries()
        assert len(remaining) == len([k for k in range(200) if k % 3])
        assert check_tree(fetcher(buffer), tree.root_pgno) == []
