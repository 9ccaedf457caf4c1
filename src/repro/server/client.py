"""Thin synchronous client for the compliance server.

One socket, one outstanding request at a time — the shape the tests and
the bench need.  Failures come back as
:class:`~repro.common.errors.ServerRequestError` carrying the protocol
error code and the server's retryable verdict, so callers can write
honest retry loops::

    try:
        client.insert(txn, "accounts", row)
    except ServerRequestError as exc:
        if exc.code == CONFLICT:
            ...  # txn is gone (server aborted it); begin a fresh one
        elif exc.retryable:
            ...  # BUSY: back off and resend the same request
        else:
            raise
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, List, Optional, Tuple

from ..common.codec import Schema
from ..common.errors import (ServerProtocolError, ServerRequestError,
                             ServerTimeoutError)
from .protocol import (BUSY, RETRYABLE_CODES, recv_frame, send_frame,
                       wire_decode, wire_encode)

#: sentinel distinguishing "no per-request override" from an explicit
#: ``None`` (= wait forever)
_UNSET = object()


def unwrap_response(response: Dict[str, Any]) -> Dict[str, Any]:
    """Result object of an ``ok`` response, or the mapped
    :class:`ServerRequestError` of an error response.  Shared by the
    blocking client's request path and the pipelined client's waiters.
    """
    if response.get("ok"):
        result = response.get("result")
        return result if isinstance(result, dict) else {}
    code = str(response.get("error", "ERROR"))
    # the server's verdict wins; a response missing the field (or an
    # older server) falls back to the protocol's canonical code set,
    # so exc.retryable and RETRYABLE_CODES can never disagree
    retryable = bool(response.get("retryable",
                                  code in RETRYABLE_CODES))
    raise ServerRequestError(code, str(response.get("message", "")),
                             retryable=retryable)


class _RemoteClock:
    """``.now()`` shim over the server's simulated clock.

    Lets clock-consuming code (the TPC-C loader and driver write
    ``db.clock.now()`` into rows) run unchanged against a remote
    backend.  Each call is one round-trip; values are data payload, not
    ordering authority — the server's clock stays the only ticker.
    """

    def __init__(self, client: "ServerClient"):
        self._client = client

    def now(self) -> int:
        return self._client.now()


class _ClientTxnContext:
    """``with client.transaction() as txn:`` over a wire handle.

    Mirrors the engine's context semantics: commit on success, abort on
    exception.  A handle the server already resolved (e.g. a conflict
    abort performed server-side) surfaces as ``TXN_STATE`` on the final
    commit/abort — that means "already resolved", so it is swallowed,
    matching the in-process context's no-op on a resolved transaction.
    """

    def __init__(self, client: "ServerClient"):
        self._client = client
        self.txn: Optional[int] = None
        self.commit_time: Optional[int] = None

    def __enter__(self) -> int:
        self.txn = self._client.begin()
        return self.txn

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            if exc_type is None:
                self.commit_time = self._client.commit(self.txn)
            else:
                self._client.abort(self.txn)
        except ServerRequestError as err:
            if err.code != "TXN_STATE":
                raise
        return False


class ServerClient:
    """Blocking frame-protocol client (context manager)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 request_timeout: Optional[float] = 30.0):
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._next_id = 1
        #: default per-request receive timeout (None = wait forever);
        #: override per call with ``request(op, _timeout=...)``
        self.request_timeout = request_timeout
        #: ``db.clock.now()`` compatibility surface (see _RemoteClock)
        self.clock = _RemoteClock(self)

    # -- plumbing ------------------------------------------------------------

    def request(self, op: str, _timeout: Any = _UNSET,
                **args: Any) -> Dict[str, Any]:
        """One round-trip; returns the result object or raises
        :class:`ServerRequestError` with the server's code.

        ``_timeout`` overrides the client's ``request_timeout`` for this
        request only (``None`` = wait forever).  A hung server raises
        :class:`ServerTimeoutError` instead of blocking the caller; the
        connection is closed, because the byte stream no longer lines up
        with the request the caller thinks is next.
        """
        timeout = self.request_timeout if _timeout is _UNSET \
            else _timeout
        request_id = self._next_id
        self._next_id += 1
        send_frame(self._sock, {"op": op, "args": args,
                                "id": request_id})
        try:
            self._sock.settimeout(timeout)
            response = recv_frame(self._sock)
        except (TimeoutError, socket.timeout):
            self.close()
            raise ServerTimeoutError(op, timeout) from None
        if response is None:
            raise ServerProtocolError(
                "server closed the connection mid-request")
        if response.get("id") != request_id:
            raise ServerProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id}")
        return unwrap_response(response)

    def request_with_retry(self, op: str, *, attempts: int = 5,
                           backoff: float = 0.01,
                           max_backoff: float = 0.5,
                           retry_conflicts: bool = False,
                           **args: Any) -> Dict[str, Any]:
        """``request`` with bounded exponential backoff on ``BUSY``.

        ``BUSY`` is pure backpressure — the request never executed, so
        resending it verbatim is always safe.  ``CONFLICT`` is different:
        the server already aborted the transaction, so a verbatim resend
        is only correct for requests not bound to a transaction handle;
        opt in with ``retry_conflicts=True`` when that holds (the shard
        coordinator does, for ``begin``).  All other errors, and the
        final exhausted attempt, propagate unchanged.
        """
        retry_codes = {BUSY} | (RETRYABLE_CODES if retry_conflicts
                                else frozenset())
        delay = backoff
        for attempt in range(attempts):
            try:
                return self.request(op, **args)
            except ServerRequestError as exc:
                last_try = attempt == attempts - 1
                if last_try or not exc.retryable or \
                        exc.code not in retry_codes:
                    raise
            time.sleep(delay)
            delay = min(delay * 2, max_backoff)
        raise AssertionError("unreachable")  # pragma: no cover

    def close(self) -> None:
        """Close the connection (open transactions are aborted
        server-side)."""
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - platform dependent
            pass

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- convenience ops -----------------------------------------------------

    def ping(self) -> bool:
        """Liveness check (never touches the writer queue)."""
        return bool(self.request("ping").get("pong"))

    def info(self) -> Dict[str, Any]:
        """Server/database status (mode, epoch, relations, halted)."""
        return self.request("info")

    def metrics(self) -> Dict[str, Any]:
        """Full metrics report of the server's database stack."""
        return self.request("metrics")["metrics"]

    def begin(self) -> int:
        """Open a transaction owned by this connection; returns its id."""
        return int(self.request("begin")["txn"])

    def commit(self, txn: int) -> int:
        """Commit; returns the commit time."""
        return int(self.request("commit", txn=txn)["commit_time"])

    def abort(self, txn: int) -> None:
        """Roll back."""
        self.request("abort", txn=txn)

    def prepare(self, txn: int, gid: str) -> None:
        """2PC phase one: durably prepare under the coordinator's gid."""
        self.request("prepare", txn=txn, gid=gid)

    def transaction(self) -> _ClientTxnContext:
        """Context manager: commit on success, abort on exception."""
        return _ClientTxnContext(self)

    @property
    def halted(self) -> bool:
        """Whether the server's database is compliance-halted."""
        return bool(self.request("info").get("halted"))

    def now(self) -> int:
        """The server's current simulated time."""
        return int(self.request("now")["now"])

    def create_relation(self, schema: Schema,
                        use_tsb: Optional[bool] = None) -> None:
        """Create a relation from a :class:`Schema`."""
        from ..api import require_schema
        require_schema(schema)
        self.request("create_relation", name=schema.name,
                     fields=[[f.name, f.ftype.value]
                             for f in schema.fields],
                     key=list(schema.key_fields), use_tsb=use_tsb)

    def insert(self, txn: int, relation: str,
               row: Dict[str, Any]) -> None:
        """Insert a row inside a transaction."""
        self.request("insert", txn=txn, relation=relation,
                     row=wire_encode(row))

    def insert_many(self, txn: int, relation: str,
                    rows: List[Dict[str, Any]]) -> None:
        """Insert a batch of rows into one relation (one round-trip)."""
        self.request("insert_many", txn=txn, relation=relation,
                     rows=[wire_encode(row) for row in rows])

    def update(self, txn: int, relation: str,
               row: Dict[str, Any]) -> None:
        """Write a new version of an existing row."""
        self.request("update", txn=txn, relation=relation,
                     row=wire_encode(row))

    def delete(self, txn: int, relation: str,
               key: Tuple[Any, ...]) -> None:
        """Logically delete a row."""
        self.request("delete", txn=txn, relation=relation,
                     key=wire_encode(list(key)))

    def get(self, relation: str, key: Tuple[Any, ...],
            txn: Optional[int] = None,
            at: Optional[int] = None) -> Optional[Dict[str, Any]]:
        """Read a row, current or as of a past time."""
        row = self.request("get", relation=relation,
                           key=wire_encode(list(key)), txn=txn,
                           at=at)["row"]
        return wire_decode(row) if row is not None else None

    def scan(self, relation: str, lo: Optional[Tuple[Any, ...]] = None,
             hi: Optional[Tuple[Any, ...]] = None,
             txn: Optional[int] = None, at: Optional[int] = None
             ) -> List[Tuple[Tuple[Any, ...], Dict[str, Any]]]:
        """Range scan; returns (key tuple, row) pairs."""
        rows = self.request(
            "scan", relation=relation,
            lo=wire_encode(list(lo)) if lo is not None else None,
            hi=wire_encode(list(hi)) if hi is not None else None,
            txn=txn, at=at)["rows"]
        return [(wire_decode(key, as_key=True), wire_decode(row))
                for key, row in rows]

    def checkpoint(self) -> None:
        """Apply pending lazy stamps and flush WAL + dirty pages."""
        self.request("checkpoint")

    def maintenance(self, force: bool = False) -> bool:
        """Run regret-interval duties if due; True when work was done."""
        return bool(self.request("maintenance", force=force)["ran"])

    def audit(self, rotate: bool = True,
              workers: Optional[int] = None) -> "AuditReport":
        """Run a compliance audit on the server; returns the report.

        The server runs the (optionally partitioned) auditor on its
        writer thread and ships the report's decision-relevant content
        back; findings and digests round-trip exactly, so a shard
        coordinator can fold the digest into a cross-shard attestation.
        """
        from ..core.audit import AuditReport, Finding
        data = self.request("audit", rotate=rotate,
                            workers=workers)["report"]
        report = AuditReport(epoch=int(data["epoch"]))
        for phase, code, detail, pgno in data["findings"]:
            report.findings.append(Finding(str(code), str(detail), pgno,
                                           phase=str(phase)))
        report.ok = bool(data["ok"])
        for name in ("snapshot_tuples", "final_tuples", "log_records",
                     "new_tuples", "read_hashes_checked", "pages_scanned",
                     "shredded_verified", "migrations_verified",
                     "workers", "tasks_total"):
            if name in data:
                setattr(report, name, int(data[name]))
        report.expected_digest = str(data["expected_digest"])
        report.final_digest = str(data["final_digest"])
        new_epoch = data.get("new_epoch")
        report.new_epoch = int(new_epoch) if new_epoch is not None \
            else None
        return report

    def crash_recover(self, commits: Optional[List[str]] = None
                      ) -> Dict[str, Any]:
        """Simulated crash + recovery (servers started with
        ``allow_crash_ops`` only).  Every open transaction dies.

        ``commits`` is the 2PC coordinator's journaled committed-gid
        list, used to resolve any in-doubt prepared transaction found
        in the WAL (presumed abort for gids not listed)."""
        return self.request("crash_recover", commits=commits)
