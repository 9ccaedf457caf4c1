"""Conformance suite for the :class:`repro.api.ComplianceBackend` protocol.

One typed interface, three implementations — the in-process
:class:`CompliantDB`, the wire :class:`ServerClient`, and the
:class:`ShardedDB` coordinator — exercised by the *same* parametrized
tests.  Anything a loader or driver may call must behave identically
against all three, because that interchangeability is what lets the
shard coordinator mix local and remote shards freely.
"""

import pytest

from repro.api import ComplianceBackend, require_schema
from repro.common.clock import SimulatedClock
from repro.common.codec import Field, FieldType, Schema
from repro.common.config import ComplianceMode, DBConfig
from repro.common.errors import ConfigError, ServerRequestError
from repro.core import CompliantDB
from repro.crypto import AuditorKey
from repro.server import ComplianceServer, ServerClient, ServerConfig
from repro.server.protocol import BUSY, CONFLICT
from repro.shard import HashRouter, ShardedDB

ACCT = Schema("acct",
              [Field("id", FieldType.INT), Field("bal", FieldType.INT)],
              key_fields=["id"])

BACKENDS = ["inproc", "wire", "sharded"]


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    """A live backend of each kind, torn down afterwards."""
    kind = request.param
    if kind == "inproc":
        db = CompliantDB.create(
            tmp_path / "db",
            DBConfig.for_mode(ComplianceMode.LOG_CONSISTENT),
            clock=SimulatedClock(), auditor_key=AuditorKey.generate())
        yield db
        db.close()
    elif kind == "wire":
        db = CompliantDB.create(
            tmp_path / "db",
            DBConfig.for_mode(ComplianceMode.LOG_CONSISTENT),
            clock=SimulatedClock(), auditor_key=AuditorKey.generate())
        server = ComplianceServer(db, ServerConfig()).start()
        client = ServerClient(*server.address)
        yield client
        client.close()
        server.shutdown()
        db.close()
    else:
        sharded = ShardedDB.create(tmp_path / "s", shards=2,
                                   router=HashRouter.name)
        yield sharded
        sharded.close()


class TestProtocolConformance:
    def test_backend_satisfies_protocol(self, backend):
        # runtime_checkable verifies the full method surface exists
        assert isinstance(backend, ComplianceBackend)

    def test_crud_round_trip(self, backend):
        backend.create_relation(ACCT)
        txn = backend.begin()
        backend.insert(txn, "acct", {"id": 1, "bal": 100})
        backend.insert_many(txn, "acct", [{"id": 2, "bal": 200},
                                          {"id": 3, "bal": 300}])
        backend.commit(txn)

        assert backend.get("acct", (2,))["bal"] == 200
        assert [k for k, _ in backend.scan("acct")] == [(1,), (2,), (3,)]

        with backend.transaction() as txn:
            backend.update(txn, "acct", {"id": 1, "bal": 150})
            backend.delete(txn, "acct", (3,))
        assert backend.get("acct", (1,))["bal"] == 150
        assert backend.get("acct", (3,)) is None

    def test_transaction_context_aborts_on_exception(self, backend):
        backend.create_relation(ACCT)
        with pytest.raises(RuntimeError):
            with backend.transaction() as txn:
                backend.insert(txn, "acct", {"id": 9, "bal": 9})
                raise RuntimeError("boom")
        assert backend.get("acct", (9,)) is None

    def test_reads_see_own_writes(self, backend):
        backend.create_relation(ACCT)
        with backend.transaction() as txn:
            backend.insert(txn, "acct", {"id": 5, "bal": 50})
            assert backend.get("acct", (5,), txn=txn)["bal"] == 50
            # not yet visible outside the transaction
            assert backend.get("acct", (5,)) is None
        assert backend.get("acct", (5,))["bal"] == 50

    def test_lifecycle_surface(self, backend):
        backend.create_relation(ACCT)
        assert backend.halted is False
        before = backend.now()
        assert isinstance(before, int)
        backend.checkpoint()
        assert isinstance(backend.maintenance(force=True), bool)
        report = backend.metrics()
        assert isinstance(report, dict) and report

    def test_as_of_reads(self, backend):
        backend.create_relation(ACCT)
        with backend.transaction() as ctx:
            backend.insert(ctx, "acct", {"id": 7, "bal": 70})
        backend.checkpoint()  # apply lazy stamps so `at` is meaningful
        stamped = backend.now()
        with backend.transaction() as ctx:
            backend.update(ctx, "acct", {"id": 7, "bal": 71})
        backend.checkpoint()
        assert backend.get("acct", (7,))["bal"] == 71
        assert backend.get("acct", (7,), at=stamped)["bal"] == 70


class TestRequireSchema:
    def test_canonical_schema_passthrough(self):
        assert require_schema(ACCT) is ACCT

    def test_name_without_schema_rejected(self):
        with pytest.raises(ConfigError):
            require_schema("bare")

    def test_legacy_spelling_rejected(self, backend):
        # ``(schema, use_tsb=None)`` is the whole signature everywhere:
        # a bare name is a ConfigError, the old fields/key keywords are
        # a TypeError, and the backend is still usable afterwards
        with pytest.raises(ConfigError):
            backend.create_relation("legacy", [("id", "int")])
        with pytest.raises(TypeError):
            backend.create_relation(ACCT, fields=[("id", "int")],
                                    key=["id"])
        backend.create_relation(ACCT)
        with backend.transaction() as txn:
            backend.insert(txn, "acct", {"id": 1, "bal": 5})
        assert backend.get("acct", (1,)) == {"id": 1, "bal": 5}


class TestClientRetryErgonomics:
    """Satellite: ``ServerRequestError.retryable`` is consistent with
    the protocol's code set, and ``request_with_retry`` is bounded."""

    class _FakeClient(ServerClient):
        """ServerClient with a scripted request() — no socket."""

        def __init__(self, script):
            # deliberately skip ServerClient.__init__ (no connection)
            self._script = list(script)
            self.calls = 0

        def request(self, op, **args):
            self.calls += 1
            action = self._script.pop(0)
            if isinstance(action, Exception):
                raise action
            return action

    def test_busy_is_retried_then_succeeds(self, monkeypatch):
        monkeypatch.setattr("repro.server.client.time",
                            _NoSleepTime())
        client = self._FakeClient([
            ServerRequestError(BUSY, "full", retryable=True),
            ServerRequestError(BUSY, "full", retryable=True),
            {"txn": 7},
        ])
        assert client.request_with_retry("begin")["txn"] == 7
        assert client.calls == 3

    def test_conflict_not_retried_by_default(self, monkeypatch):
        monkeypatch.setattr("repro.server.client.time",
                            _NoSleepTime())
        client = self._FakeClient([
            ServerRequestError(CONFLICT, "aborted", retryable=True),
        ])
        with pytest.raises(ServerRequestError) as exc:
            client.request_with_retry("insert")
        assert exc.value.code == CONFLICT
        assert client.calls == 1

    def test_conflict_retried_when_opted_in(self, monkeypatch):
        monkeypatch.setattr("repro.server.client.time",
                            _NoSleepTime())
        client = self._FakeClient([
            ServerRequestError(CONFLICT, "aborted", retryable=True),
            {"txn": 9},
        ])
        result = client.request_with_retry("begin",
                                           retry_conflicts=True)
        assert result["txn"] == 9 and client.calls == 2

    def test_attempts_are_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.server.client.time",
                            _NoSleepTime())
        client = self._FakeClient([
            ServerRequestError(BUSY, "full", retryable=True)
            for _ in range(10)])
        with pytest.raises(ServerRequestError):
            client.request_with_retry("begin", attempts=4)
        assert client.calls == 4

    def test_fatal_errors_propagate_immediately(self, monkeypatch):
        monkeypatch.setattr("repro.server.client.time",
                            _NoSleepTime())
        client = self._FakeClient([
            ServerRequestError("HALTED", "stop", retryable=False),
        ])
        with pytest.raises(ServerRequestError):
            client.request_with_retry("begin")
        assert client.calls == 1

    def test_wire_retryable_flag_matches_server_verdict(self, tmp_path):
        """End-to-end: a real conflict surfaces retryable=True on the
        client exactly as the server judged it."""
        db = CompliantDB.create(
            tmp_path / "db",
            DBConfig.for_mode(ComplianceMode.LOG_CONSISTENT),
            clock=SimulatedClock(), auditor_key=AuditorKey.generate())
        db.create_relation(ACCT)
        server = ComplianceServer(db, ServerConfig()).start()
        try:
            with ServerClient(*server.address) as one, \
                    ServerClient(*server.address) as two:
                t1 = one.begin()
                one.insert(t1, "acct", {"id": 1, "bal": 1})
                t2 = two.begin()
                with pytest.raises(ServerRequestError) as exc:
                    two.insert(t2, "acct", {"id": 1, "bal": 2})
                assert exc.value.code == CONFLICT
                assert exc.value.retryable is True
                one.commit(t1)
        finally:
            server.shutdown()
            db.close()


class _NoSleepTime:
    """time-module stand-in: retries must not slow the suite down."""

    @staticmethod
    def sleep(_seconds):
        pass
