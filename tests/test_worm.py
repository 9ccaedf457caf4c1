"""Tests for the simulated WORM compliance storage server."""

import pytest

from repro.common.clock import SimulatedClock, minutes, years
from repro.common.errors import (WormError, WormFileExistsError,
                                 WormFileNotFoundError, WormViolationError)
from repro.crypto import AuditorKey
from repro.worm import WormServer


class TestCreateAndRead:
    def test_create_and_read_back(self, worm):
        worm.create_file("a/b/doc.txt", b"hello")
        assert worm.read("a/b/doc.txt") == b"hello"
        assert worm.size("a/b/doc.txt") == 5

    def test_create_time_from_compliance_clock(self, clock, worm):
        before = clock.now()
        worm.create_file("stamp", b"x")
        meta = worm.meta("stamp")
        assert meta.create_time == before

    def test_empty_witness_file(self, worm):
        worm.create_file("witness-1")
        assert worm.read("witness-1") == b""
        assert worm.exists("witness-1")

    def test_duplicate_name_rejected(self, worm):
        worm.create_file("doc", b"v1")
        with pytest.raises(WormFileExistsError):
            worm.create_file("doc", b"v2")

    def test_missing_file(self, worm):
        with pytest.raises(WormFileNotFoundError):
            worm.read("nope")

    def test_bad_names_rejected(self, worm):
        for bad in ["", "../escape", "a//b", "/abs", "sp ace"]:
            with pytest.raises(WormError):
                worm.create_file(bad, b"x")

    def test_list_files_prefix(self, worm):
        worm.create_file("logs/l1", b"x")
        worm.create_file("logs/l2", b"x")
        worm.create_file("snap/s1", b"x")
        assert worm.list_files("logs/") == ["logs/l1", "logs/l2"]
        assert len(worm.list_files()) == 3


class TestImmutability:
    def test_regular_file_not_appendable(self, worm):
        worm.create_file("doc", b"committed")
        with pytest.raises(WormViolationError):
            worm.append("doc", b"more")

    def test_append_file_grows_and_offsets(self, worm):
        worm.create_append_file("log")
        assert worm.append("log", b"aaa") == 0
        assert worm.append("log", b"bb") == 3
        assert worm.read("log") == b"aaabb"

    def test_partial_read(self, worm):
        worm.create_append_file("log")
        worm.append("log", b"0123456789")
        assert worm.read("log", offset=3, length=4) == b"3456"

    def test_sealed_log_rejects_append(self, worm):
        worm.create_append_file("log")
        worm.append("log", b"x")
        worm.seal("log")
        with pytest.raises(WormViolationError):
            worm.append("log", b"y")
        assert worm.read("log") == b"x"

    def test_seal_idempotent(self, worm):
        worm.create_append_file("log")
        worm.seal("log")
        worm.seal("log")

    def test_early_delete_rejected(self, clock, worm):
        worm.create_file("doc", b"keep me", retention=years(7))
        clock.advance(years(6))
        with pytest.raises(WormViolationError):
            worm.delete("doc")
        assert worm.exists("doc")

    def test_delete_after_retention(self, clock, worm):
        worm.create_file("doc", b"temp", retention=minutes(5))
        assert not worm.is_expired("doc")
        clock.advance(minutes(6))
        assert worm.is_expired("doc")
        worm.delete("doc")
        assert not worm.exists("doc")

    def test_zero_retention_rejected(self, worm):
        with pytest.raises(WormError):
            worm.create_file("doc", b"x", retention=0)


class TestPersistence:
    def test_metadata_survives_reopen(self, tmp_path, clock):
        server = WormServer(tmp_path / "w", clock, default_retention=years(1))
        server.create_file("doc", b"payload")
        server.create_append_file("log")
        server.append("log", b"entry")
        server.seal("log")
        created = server.meta("doc").create_time

        reopened = WormServer(tmp_path / "w", clock,
                              default_retention=years(1))
        assert reopened.read("doc") == b"payload"
        assert reopened.meta("doc").create_time == created
        assert reopened.read("log") == b"entry"
        with pytest.raises(WormViolationError):
            reopened.append("log", b"more")

    def test_deletes_survive_reopen(self, tmp_path, clock):
        server = WormServer(tmp_path / "w", clock,
                            default_retention=minutes(1))
        server.create_file("doc", b"x")
        clock.advance(minutes(2))
        server.delete("doc")
        reopened = WormServer(tmp_path / "w", clock,
                              default_retention=minutes(1))
        assert not reopened.exists("doc")


class TestAuditorKey:
    def test_sign_verify_round_trip(self):
        key = AuditorKey.generate("alice")
        sig = key.sign(b"snapshot-hash")
        assert key.verify(b"snapshot-hash", sig)

    def test_tampered_message_fails(self):
        key = AuditorKey.generate("alice")
        sig = key.sign(b"snapshot-hash")
        assert not key.verify(b"snapshot-hash-tampered", sig)

    def test_wrong_key_fails(self):
        alice, mala = AuditorKey.generate("alice"), AuditorKey.generate("mala")
        sig = mala.sign(b"forged statement")
        assert not alice.verify(b"forged statement", sig)

    def test_require_valid_raises(self):
        from repro.common.errors import SnapshotError
        key = AuditorKey.generate("alice")
        with pytest.raises(SnapshotError):
            key.require_valid(b"m", b"\x00" * 64, what="snapshot")

    def test_deterministic_generation(self):
        assert AuditorKey.generate("a").sign(b"m") == \
            AuditorKey.generate("a").sign(b"m")


class TestReadClamping:
    def test_explicit_length_clamped_at_size(self, worm):
        worm.create_file("doc", b"0123456789")
        assert worm.read("doc", 4, 100) == b"456789"
        assert worm.read("doc", 0, 10**9) == b"0123456789"

    def test_read_never_returns_padded_file_bytes(self, tmp_path, worm):
        # an adversary pads the underlying volume file out-of-band; the
        # trusted metadata's size must still bound every read
        worm.create_file("doc", b"real")
        with open(tmp_path / "worm" / "doc", "ab") as handle:
            handle.write(b"INJECTED")
        assert worm.read("doc", 0, 100) == b"real"
        assert worm.read("doc") == b"real"
        assert worm.read("doc", 2, 50) == b"al"

    def test_offset_past_size_is_empty(self, worm):
        worm.create_file("doc", b"abc")
        assert worm.read("doc", 3, 10) == b""
        assert worm.read("doc", 7) == b""


class TestGroupCommitBuffer:
    def test_buffered_appends_readable_before_sync(self, worm):
        worm.create_append_file("log")
        worm.append("log", b"aaa", durable=False)
        worm.append("log", b"bbb", durable=False)
        assert worm.size("log") == 6
        assert worm.buffered("log") == 6
        assert worm.read("log") == b"aaabbb"
        assert worm.read("log", 2, 3) == b"abb"

    def test_sync_is_one_flush_for_many_appends(self, worm):
        worm.create_append_file("log")
        registry = worm.obs.registry
        names = ("worm_flushes_total", "worm_appends_total",
                 "worm_buffered_appends_total")
        before = {name: registry.value(name) for name in names}

        def delta(name):
            return registry.value(name) - before[name]
        for i in range(50):
            worm.append("log", b"x" * 10, durable=False)
        assert delta("worm_flushes_total") == 0
        assert worm.sync("log") is True
        assert delta("worm_flushes_total") == 1
        assert delta("worm_appends_total") == 50
        assert delta("worm_buffered_appends_total") == 50
        assert worm.sync("log") is False  # nothing left
        assert worm.buffered("log") == 0

    def test_drop_buffers_loses_unsynced_tail_only(self, worm):
        worm.create_append_file("log")
        worm.append("log", b"durable-", durable=False)
        worm.sync("log")
        worm.append("log", b"lost", durable=False)
        assert worm.drop_buffers() == 4
        assert worm.size("log") == 8
        assert worm.read("log") == b"durable-"

    def test_durable_append_drains_earlier_buffered(self, worm):
        # ordering: a durable append may not overtake buffered bytes
        worm.create_append_file("log")
        worm.append("log", b"first", durable=False)
        worm.append("log", b"second", durable=True)
        worm.drop_buffers()  # nothing buffered anymore
        assert worm.read("log") == b"firstsecond"

    def test_seal_drains_buffer(self, worm):
        worm.create_append_file("log")
        worm.append("log", b"tail", durable=False)
        worm.seal("log")
        assert worm.buffered("log") == 0
        worm.drop_buffers()
        assert worm.read("log") == b"tail"

    def test_buffered_bytes_absent_after_reopen(self, tmp_path, clock):
        server = WormServer(tmp_path / "w2", clock,
                            default_retention=years(7))
        server.create_append_file("log")
        server.append("log", b"durable", durable=False)
        server.sync("log")
        server.append("log", b"volatile", durable=False)
        # a new server over the same volume sees only synced bytes —
        # the in-memory buffer died with the old process
        reopened = WormServer(tmp_path / "w2", clock,
                              default_retention=years(7))
        assert reopened.size("log") == 7
        assert reopened.read("log") == b"durable"

    def test_append_offsets_account_for_buffer(self, worm):
        worm.create_append_file("log")
        assert worm.append("log", b"aa", durable=False) == 0
        assert worm.append("log", b"bbb", durable=False) == 2
        assert worm.append("log", b"c", durable=True) == 5
