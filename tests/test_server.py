"""Tests for the multi-client compliance server (``repro.server``).

The load-bearing property: the server's single-writer executor makes
every concurrent workload equivalent to *some* serial history, and the
journal it records **is** that history — replaying it against an
identically seeded database reproduces the audit report exactly
(timestamps included, because every timestamp is a deterministic clock
tick).
"""

import socket
import threading
import time

import pytest

from repro.common.clock import SimulatedClock
from repro.common.codec import Field, FieldType, Schema
from repro.common.config import ComplianceMode, DBConfig
from repro.common.errors import (ServerBusyError, ServerProtocolError,
                                 ServerRequestError, ServerShutdownError)
from repro.core import Auditor, CompliantDB
from repro.crypto import AuditorKey
from repro.server import (ComplianceServer, ServerClient, ServerConfig,
                          SingleWriterExecutor, protocol, replay_history)

KV = Schema("kv", [Field("k", FieldType.INT), Field("v", FieldType.STR)],
            key_fields=["k"])


def make_db(path, mode=ComplianceMode.LOG_CONSISTENT, key=None):
    return CompliantDB.create(path, DBConfig.for_mode(mode),
                              clock=SimulatedClock(),
                              auditor_key=key or AuditorKey.generate())


@pytest.fixture
def server(tmp_path):
    db = make_db(tmp_path / "db")
    # schema setup happens before start(): once the writer thread is
    # running, the main thread must not touch the engine (the runtime
    # sanitizer enforces exactly this)
    db.create_relation(KV)
    srv = ComplianceServer(db, ServerConfig(record_history=True,
                                            allow_crash_ops=True)).start()
    yield srv
    srv.shutdown()
    db.close()


def connect(server):
    return ServerClient(*server.address)


class TestWireProtocol:
    def test_value_roundtrip(self):
        value = {"k": [1, "two", b"\x00\xff"], "nested": {"b": b""}}
        encoded = protocol.wire_encode(value)
        assert protocol.wire_decode(encoded) == \
            {"k": [1, "two", b"\x00\xff"], "nested": {"b": b""}}

    def test_key_decode_produces_tuple(self):
        assert protocol.wire_decode([1, "a"], as_key=True) == (1, "a")

    def test_frame_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            protocol.send_frame(a, {"op": "ping", "id": 7})
            assert protocol.recv_frame(b) == {"op": "ping", "id": 7}
            a.close()
            assert protocol.recv_frame(b) is None  # clean EOF
        finally:
            b.close()

    def test_oversized_frame_rejected_without_allocation(self):
        a, b = socket.socketpair()
        try:
            a.sendall((protocol.MAX_FRAME_BYTES + 1)
                      .to_bytes(4, "little"))
            with pytest.raises(ServerProtocolError):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_truncated_frame_is_a_protocol_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall((100).to_bytes(4, "little") + b"{}")
            a.close()
            with pytest.raises(ServerProtocolError):
                protocol.recv_frame(b)
        finally:
            b.close()

    def test_oversized_outgoing_frame_rejected(self):
        with pytest.raises(ServerProtocolError):
            protocol.encode_frame(
                {"data": "x" * (protocol.MAX_FRAME_BYTES + 1)})


class TestSingleWriterExecutor:
    def test_jobs_run_in_submission_order(self):
        ex = SingleWriterExecutor(max_depth=16)
        ex.start()
        order = []
        futures = [ex.submit(lambda i=i: order.append(i))
                   for i in range(8)]
        for future in futures:
            future.result(timeout=5)
        ex.stop()
        assert order == list(range(8))

    def test_depth_cap_raises_busy(self):
        ex = SingleWriterExecutor(max_depth=2)
        ex.start()
        gate = threading.Event()
        blocker = ex.submit(gate.wait)      # executing: depth 1
        queued = ex.submit(lambda: None)    # queued:    depth 2
        with pytest.raises(ServerBusyError):
            ex.submit(lambda: None)
        forced = ex.submit(lambda: True, force=True)  # bypasses admission
        gate.set()
        blocker.result(timeout=5)
        queued.result(timeout=5)
        assert forced.result(timeout=5) is True
        ex.stop()

    def test_stop_without_drain_fails_queued_jobs(self):
        ex = SingleWriterExecutor(max_depth=8)
        ex.start()
        gate = threading.Event()
        ex.submit(gate.wait)
        victim = ex.submit(lambda: "never")
        ex.stop(drain=False)
        gate.set()
        with pytest.raises(ServerShutdownError):
            victim.result(timeout=5)

    def test_queue_depth_gauge_tracks_load(self):
        ex = SingleWriterExecutor(max_depth=8)
        gauge = ex.obs.registry.gauge("server_queue_depth")
        ex.start()
        gate = threading.Event()
        blocker = ex.submit(gate.wait)
        ex.submit(lambda: None)
        assert gauge.value == 2
        gate.set()
        blocker.result(timeout=5)
        ex.stop()
        assert gauge.value == 0


class TestServerBasics:
    def test_ping_info_metrics(self, server):
        with connect(server) as client:
            assert client.ping()
            info = client.info()
            assert info["mode"] == "log-consistent"
            assert info["halted"] is False
            assert "kv" in info["relations"]
            metrics = client.metrics()
            assert "counters" in metrics

    def test_write_read_cycle(self, server):
        with connect(server) as client:
            txn = client.begin()
            client.insert(txn, "kv", {"k": 1, "v": "one"})
            client.insert(txn, "kv", {"k": 2, "v": "two"})
            commit_time = client.commit(txn)
            assert commit_time > txn
            assert client.get("kv", (1,)) == {"k": 1, "v": "one"}
            assert [k for k, _ in client.scan("kv")] == [(1,), (2,)]

    def test_update_delete_and_as_of(self, server):
        with connect(server) as client:
            txn = client.begin()
            client.insert(txn, "kv", {"k": 5, "v": "old"})
            t1 = client.commit(txn)
            txn = client.begin()
            client.update(txn, "kv", {"k": 5, "v": "new"})
            client.commit(txn)
            assert client.get("kv", (5,))["v"] == "new"
            assert client.get("kv", (5,), at=t1)["v"] == "old"
            txn = client.begin()
            client.delete(txn, "kv", (5,))
            client.commit(txn)
            assert client.get("kv", (5,)) is None

    def test_abort_discards_writes(self, server):
        with connect(server) as client:
            txn = client.begin()
            client.insert(txn, "kv", {"k": 9, "v": "phantom"})
            client.abort(txn)
            assert client.get("kv", (9,)) is None

    def test_unknown_op_is_an_error(self, server):
        with connect(server) as client:
            with pytest.raises(ServerRequestError) as err:
                client.request("explode")
            assert not err.value.retryable

    def test_malformed_args_is_bad_request(self, server):
        with connect(server) as client:
            with pytest.raises(ServerRequestError) as err:
                client.request("get", relation="kv")  # no key
            assert err.value.code == protocol.BAD_REQUEST

    def test_stale_txn_handle_is_txn_state(self, server):
        with connect(server) as client:
            with pytest.raises(ServerRequestError) as err:
                client.request("insert", txn=1, relation="kv",
                               row={"k": 1, "v": "x"})
            assert err.value.code == protocol.TXN_STATE

    @pytest.mark.parametrize("workers", (None, 1))
    def test_remote_audit_reports_its_plan(self, server, workers):
        with connect(server) as client:
            txn = client.begin()
            client.insert(txn, "kv", {"k": 1, "v": "one"})
            client.commit(txn)
            report = client.audit(rotate=False, workers=workers)
            assert report.ok and not report.findings
            assert report.workers == (workers or 0)
            assert report.tasks_total >= 3
            payload = client.request("audit", rotate=False,
                                     workers=workers)["report"]
            assert "tasks_resumed" not in payload
            assert payload["tasks_total"] == report.tasks_total

    def test_crash_ops_gated_by_config(self, tmp_path):
        db = make_db(tmp_path / "db")
        srv = ComplianceServer(db, ServerConfig()).start()  # no crash ops
        try:
            with connect(srv) as client:
                with pytest.raises(ServerRequestError):
                    client.crash_recover()
        finally:
            srv.shutdown()
            db.close()


class TestSessionOwnership:
    def test_foreign_txn_handle_rejected(self, server):
        with connect(server) as alice, connect(server) as bob:
            txn = alice.begin()
            with pytest.raises(ServerRequestError) as err:
                bob.insert(txn, "kv", {"k": 1, "v": "hijack"})
            assert err.value.code == protocol.TXN_STATE
            alice.abort(txn)

    def test_disconnect_aborts_open_txns_and_frees_locks(self, server):
        alice = connect(server)
        txn = alice.begin()
        alice.insert(txn, "kv", {"k": 1, "v": "alice"})
        alice.close()
        with connect(server) as bob:
            # alice's X lock must be gone, her insert rolled back
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                try:
                    t2 = bob.begin()
                    bob.insert(t2, "kv", {"k": 1, "v": "bob"})
                    bob.commit(t2)
                    break
                except ServerRequestError as exc:
                    if not exc.retryable:
                        raise
                    time.sleep(0.01)
            assert bob.get("kv", (1,)) == {"k": 1, "v": "bob"}

    def test_lock_conflict_is_retryable_and_server_aborts(self, server):
        with connect(server) as alice, connect(server) as bob:
            seed = alice.begin()
            alice.insert(seed, "kv", {"k": 1, "v": "seed"})
            alice.commit(seed)
            ta = alice.begin()
            alice.update(ta, "kv", {"k": 1, "v": "a"})
            tb = bob.begin()
            with pytest.raises(ServerRequestError) as err:
                bob.update(tb, "kv", {"k": 1, "v": "b"})
            assert err.value.code == protocol.CONFLICT
            assert err.value.retryable
            alice.commit(ta)
            # on first-writer-wins aborts the server rolls the txn
            # back; the dead handle is then unusable
            try:
                bob.commit(tb)
            except ServerRequestError as exc:
                assert exc.code in (protocol.TXN_STATE,
                                    protocol.CONFLICT)


class TestBackpressure:
    def test_busy_response_when_writer_queue_full(self, tmp_path):
        db = make_db(tmp_path / "db")
        srv = ComplianceServer(
            db, ServerConfig(max_queue_depth=1)).start()
        try:
            gate = threading.Event()
            blocker = srv.service.executor.submit(gate.wait)
            with connect(srv) as client:
                with pytest.raises(ServerRequestError) as err:
                    client.request("info")
                assert err.value.code == protocol.BUSY
                assert err.value.retryable
                gate.set()
                blocker.result(timeout=5)
                assert client.info()["halted"] is False
                busy = db.obs.registry.counter(
                    "server_busy_total").value
                assert busy >= 1
        finally:
            srv.shutdown()
            db.close()

    def test_ping_bypasses_the_writer_queue(self, tmp_path):
        db = make_db(tmp_path / "db")
        srv = ComplianceServer(
            db, ServerConfig(max_queue_depth=1)).start()
        try:
            gate = threading.Event()
            blocker = srv.service.executor.submit(gate.wait)
            with connect(srv) as client:
                assert client.ping()  # liveness even under backpressure
            gate.set()
            blocker.result(timeout=5)
        finally:
            srv.shutdown()
            db.close()


class TestGracefulDrain:
    def test_shutdown_aborts_leftover_txns(self, tmp_path):
        db = make_db(tmp_path / "db")
        db.create_relation(KV)
        srv = ComplianceServer(db, ServerConfig()).start()
        client = connect(srv)
        txn = client.begin()
        client.insert(txn, "kv", {"k": 1, "v": "doomed"})
        srv.shutdown()
        client.close()
        assert db.engine.txns.active_count == 0
        assert db.get("kv", (1,)) is None
        db.close()

    def test_shutdown_is_idempotent(self, tmp_path):
        db = make_db(tmp_path / "db")
        srv = ComplianceServer(db, ServerConfig()).start()
        srv.shutdown()
        srv.shutdown()
        db.close()

    def test_shutdown_wakes_idle_accept_thread(self, tmp_path):
        # close() alone never interrupts a blocked accept() on Linux;
        # without the listener shutdown() nudge this burns the whole
        # drain_timeout on the accept-thread join
        db = make_db(tmp_path / "db")
        srv = ComplianceServer(db, ServerConfig()).start()
        start = time.monotonic()
        srv.shutdown()
        assert time.monotonic() - start < 5.0
        assert srv._accept_thread is not None
        assert not srv._accept_thread.is_alive()
        db.close()


@pytest.mark.parametrize("mode", [ComplianceMode.LOG_CONSISTENT,
                                  ComplianceMode.HASH_ON_READ],
                         ids=["LC", "HR"])
class TestConcurrentClients:
    """N threaded clients, overlapping keys, a crash mid-load — and the
    audit must be clean *and* byte-identical to a serial replay."""

    CLIENTS = 6
    OPS = 20
    KEYS = 10

    def run_load(self, server, crash_at=None):
        fatal = []

        def worker(wid):
            import random
            rng = random.Random(wid)
            with connect(server) as client:
                for i in range(self.OPS):
                    if crash_at is not None and (wid, i) == crash_at:
                        client.crash_recover()
                        continue
                    k = rng.randrange(self.KEYS)
                    try:
                        txn = client.begin()
                        row = client.get("kv", (k,), txn=txn)
                        if row is None:
                            client.insert(txn, "kv",
                                          {"k": k, "v": f"w{wid}i{i}"})
                        else:
                            client.update(txn, "kv",
                                          {"k": k, "v": f"w{wid}i{i}"})
                        client.commit(txn)
                    except ServerRequestError as exc:
                        # TXN_STATE happens when another session's
                        # crash_recover killed our open handle — the
                        # designed crash semantics, not a failure
                        if not exc.retryable and \
                                exc.code != protocol.TXN_STATE:
                            fatal.append((wid, i, exc.code, str(exc)))
                            return

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return fatal

    def test_concurrent_load_audits_clean_and_replays_identically(
            self, tmp_path, mode):
        key = AuditorKey.generate()
        db = make_db(tmp_path / "live", mode, key)
        db.create_relation(KV)  # before start(): writer owns db after
        srv = ComplianceServer(db, ServerConfig(
            record_history=True, allow_crash_ops=True)).start()
        # schema DDL ran outside the server: journal it by hand so the
        # replay database performs the identical op sequence
        srv.service._record(("create_relation", "kv",
                             [("k", "int"), ("v", "str")], ["k"], None))

        fatal = self.run_load(srv, crash_at=(2, self.OPS // 2))
        assert fatal == [], fatal

        # drain first: session-close cleanup aborts are part of the
        # history, and some may still be in flight on worker threads
        srv.shutdown()
        history = srv.service.history_snapshot()
        assert any(entry[0] == "crash_recover" for entry in history)
        committed = sum(1 for entry in history if entry[0] == "commit")
        assert committed > self.CLIENTS  # real work got through

        live = Auditor(db).audit(rotate=False)
        assert live.ok, [str(f) for f in live.findings]

        replay_db = make_db(tmp_path / "replay", mode, key)
        replay_history(replay_db, history)
        serial = Auditor(replay_db).audit(rotate=False)
        assert serial.ok, [str(f) for f in serial.findings]
        assert live.comparable() == serial.comparable()
        # same data surface too
        assert db.scan("kv") == replay_db.scan("kv")
        db.close()
        replay_db.close()
