"""Service layer: single-writer execution of client requests.

The engine underneath (:class:`~repro.core.database.CompliantDB`) is a
single-caller library — the strict-2PL lock table surfaces conflicts to
*one* driver thread and none of the storage layers take internal locks.
The service therefore serialises every database-touching request through
a :class:`SingleWriterExecutor`: one worker thread owns the database, a
bounded queue in front of it is the admission-control point, and the
order in which the worker applies requests **is** the serial history of
the database.  (This mirrors the queue-worker-poll shape of
Compliance_Sentinel's job pipeline — validate/enqueue at the edge, one
background worker drains in FIFO order.)

Sessions own transactions: each network connection maps to a
:class:`Session`, transaction handles returned by ``begin`` are only
usable by the session that opened them, and a session's open
transactions are aborted when it closes (disconnect or drain).

When ``record_history=True`` every successfully applied operation is
journaled in execution order.  Because the executor's order is a serial
order and every timestamp comes from the deterministic
:class:`~repro.common.clock.SimulatedClock`, replaying the journal with
:func:`replay_history` against a fresh, identically configured database
reproduces the WAL, the compliance log, and therefore the audit report
byte-for-byte — the equivalence the server concurrency tests and the
bench gate assert.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..common.codec import Field, FieldType, Schema
from ..common.errors import (ServerBusyError, ServerError,
                             ServerShutdownError, TransactionAborted,
                             TransactionStateError)
from ..core.audit import Auditor
from ..obs import Observability
from ..txn import Transaction
from .protocol import wire_decode, wire_encode

#: one journaled operation: (op name, *op-specific fields)
HistoryEntry = Tuple[Any, ...]


class SingleWriterExecutor:
    """A bounded FIFO queue in front of one database-owning thread.

    ``submit`` is the admission-control point: when ``depth`` (queued +
    executing jobs) has reached ``max_depth`` the request is rejected
    with :class:`ServerBusyError` instead of queueing — the caller
    surfaces that as a retryable ``BUSY`` response, which is the
    backpressure signal.  ``force=True`` bypasses admission for
    cleanup work that must not be droppable (session-close aborts,
    drain barriers).
    """

    def __init__(self, max_depth: int = 64,
                 obs: Optional[Observability] = None):
        if max_depth < 1:
            raise ServerError("max_depth must be positive")
        self.max_depth = max_depth
        self.obs = obs if obs is not None else Observability()
        registry = self.obs.registry
        self._g_depth = registry.gauge(
            "server_queue_depth",
            help="requests queued or executing on the writer thread")
        self._c_busy = registry.counter(
            "server_busy_total",
            help="requests rejected by admission control")
        self._c_executed = registry.counter(
            "server_jobs_executed_total",
            help="jobs the writer thread completed (incl. failed ones)")
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._jobs: List[Tuple[Callable[[], Any], "Future[Any]"]] = []
        self._depth = 0
        self._draining = False
        self._thread: Optional[threading.Thread] = None

    @property
    def depth(self) -> int:
        """Jobs queued or executing right now."""
        with self._lock:
            return self._depth

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has completed (writer thread gone)."""
        with self._lock:
            return self._draining and self._thread is None

    def start(self) -> None:
        """Spawn the writer thread (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._run,
                                        name="repro-server-writer",
                                        daemon=True)
        self._thread.start()

    def submit(self, fn: Callable[[], Any],
               force: bool = False) -> "Future[Any]":
        """Enqueue a job; raises :class:`ServerBusyError` at the depth
        cap and :class:`ServerShutdownError` once draining."""
        future: "Future[Any]" = Future()
        with self._lock:
            if self._draining and not force:
                raise ServerShutdownError("server is draining")
            if not force and self._depth >= self.max_depth:
                self._c_busy.inc()
                raise ServerBusyError(
                    f"writer queue at depth limit {self.max_depth}")
            self._depth += 1
            self._g_depth.set(self._depth)
            self._jobs.append((fn, future))
            self._wake.notify()
        return future

    def _run(self) -> None:
        while True:
            with self._lock:
                while not self._jobs:
                    if self._draining:
                        return
                    self._wake.wait()
                fn, future = self._jobs.pop(0)
            try:
                result = fn()
            except BaseException as exc:  # delivered to the caller
                future.set_exception(exc)
            else:
                future.set_result(result)
            self._c_executed.inc()
            with self._lock:
                self._depth -= 1
                self._g_depth.set(self._depth)

    def stop(self, drain: bool = True) -> None:
        """Stop the writer thread.

        ``drain=True`` lets every queued job finish first; ``False``
        fails queued jobs with :class:`ServerShutdownError`.
        """
        with self._lock:
            self._draining = True
            if not drain:
                failed, self._jobs = self._jobs, []
                self._depth -= len(failed)
                self._g_depth.set(self._depth)
            else:
                failed = []
            self._wake.notify_all()
        for _, future in failed:
            future.set_exception(
                ServerShutdownError("server stopped before execution"))
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None


class Session:
    """One client connection's transaction scope."""

    def __init__(self, session_id: int):
        self.session_id = session_id
        #: txn id -> live handle; mutated only on the writer thread
        self.txns: Dict[int, Transaction] = {}
        self.closed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session({self.session_id}, txns={sorted(self.txns)})"


class ComplianceService:
    """Request dispatch over a CompliantDB, one writer thread deep.

    Public entry points (``open_session`` / ``execute`` /
    ``close_session`` / …) are thread-safe: they marshal the actual
    work onto the executor.  The ``_op_*`` handlers run exclusively on
    the writer thread and are the only code that touches the database.
    """

    #: ops that do not touch the database (answered on the session
    #: thread, no admission control)
    _LOCAL_OPS = frozenset({"ping"})

    def __init__(self, db: Any, max_queue_depth: int = 64,
                 record_history: bool = False,
                 allow_crash_ops: bool = False,
                 obs: Optional[Observability] = None):
        self.db = db
        self.obs = obs if obs is not None else db.obs
        self.executor = SingleWriterExecutor(max_queue_depth, obs=self.obs)
        self.allow_crash_ops = allow_crash_ops
        self._history: Optional[List[HistoryEntry]] = \
            [] if record_history else None
        self._sessions: Dict[int, Session] = {}
        self._sessions_lock = threading.Lock()
        self._next_session = 1
        self._ops: Dict[str, Callable[[Session, Dict[str, Any]],
                                      Dict[str, Any]]] = {
            "begin": self._op_begin,
            "commit": self._op_commit,
            "abort": self._op_abort,
            "prepare": self._op_prepare,
            "insert": self._op_insert,
            "insert_many": self._op_insert_many,
            "update": self._op_update,
            "delete": self._op_delete,
            "get": self._op_get,
            "scan": self._op_scan,
            "create_relation": self._op_create_relation,
            "info": self._op_info,
            "metrics": self._op_metrics,
            "now": self._op_now,
            "checkpoint": self._op_checkpoint,
            "maintenance": self._op_maintenance,
            "audit": self._op_audit,
            "crash_recover": self._op_crash_recover,
            "ping": self._op_ping,
        }

    # -- session lifecycle ---------------------------------------------------

    def open_session(self) -> Session:
        """Register a new session (one per connection)."""
        with self._sessions_lock:
            session = Session(self._next_session)
            self._next_session += 1
            self._sessions[session.session_id] = session
        return session

    def close_session(self, session: Session) -> None:
        """Abort the session's open transactions and forget it.

        Runs the aborts on the writer thread with admission bypassed —
        cleanup must not be lost to backpressure.
        """
        with self._sessions_lock:
            self._sessions.pop(session.session_id, None)
        future = self.executor.submit(
            lambda: self._abort_session_txns(session), force=True)
        future.result(timeout=30)

    def _abort_session_txns(self, session: Session) -> int:
        session.closed = True
        aborted = 0
        for txn_id in sorted(session.txns):
            txn = session.txns.pop(txn_id)
            try:
                self.db.abort(txn)
            except (TransactionStateError, TransactionAborted):
                continue  # already resolved (e.g. by a crash)
            self._record(("abort", txn_id))
            aborted += 1
        return aborted

    def drain_sessions(self) -> int:
        """Abort every live session's transactions (server drain)."""
        with self._sessions_lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        total = 0
        for session in sessions:
            future = self.executor.submit(
                lambda s=session: self._abort_session_txns(s), force=True)
            total += future.result(timeout=30)
        return total

    @property
    def session_count(self) -> int:
        """Live sessions."""
        with self._sessions_lock:
            return len(self._sessions)

    # -- request execution ---------------------------------------------------

    def execute(self, session: Session, op: str,
                args: Dict[str, Any]) -> Dict[str, Any]:
        """Run one request to completion; called from session threads.

        Database ops are serialised through the executor; admission
        control may reject them with :class:`ServerBusyError` before
        they queue.
        """
        handler = self._ops.get(op)
        if handler is None:
            raise ServerError(f"unknown op {op!r}")
        if op in self._LOCAL_OPS:
            return handler(session, args)
        future = self.executor.submit(lambda: handler(session, args))
        return future.result()

    def history_snapshot(self) -> List[HistoryEntry]:
        """Copy of the execution-order journal (empty if disabled).

        Taken on the writer thread so it can never observe a
        half-applied operation.  Prefer calling this *after* the server
        has drained: cleanup aborts from closing sessions are part of
        the history, and a snapshot taken mid-traffic will miss any
        still in flight.
        """
        if self._history is None:
            return []
        if self.executor.stopped:  # no writers left: direct read is safe
            return list(self._history)
        future = self.executor.submit(lambda: list(self._history or []),
                                      force=True)
        return future.result(timeout=30)

    def _record(self, entry: HistoryEntry) -> None:
        if self._history is not None:
            self._history.append(entry)

    # -- op handlers (writer thread only) ------------------------------------

    def _txn(self, session: Session, args: Dict[str, Any]) -> Transaction:
        txn_id = args.get("txn")
        if not isinstance(txn_id, int):
            raise ServerError("request needs an integer 'txn' handle")
        txn = session.txns.get(txn_id)
        if txn is None:
            raise TransactionStateError(
                f"txn {txn_id} is not open in this session")
        return txn

    def _op_begin(self, session: Session,
                  args: Dict[str, Any]) -> Dict[str, Any]:
        txn = self.db.begin()
        session.txns[txn.txn_id] = txn
        self._record(("begin", txn.txn_id))
        return {"txn": txn.txn_id}

    def _op_commit(self, session: Session,
                   args: Dict[str, Any]) -> Dict[str, Any]:
        txn = self._txn(session, args)
        commit_time = self.db.commit(txn)
        del session.txns[txn.txn_id]
        self._record(("commit", txn.txn_id))
        return {"commit_time": commit_time}

    def _op_abort(self, session: Session,
                  args: Dict[str, Any]) -> Dict[str, Any]:
        txn = self._txn(session, args)
        self.db.abort(txn)
        del session.txns[txn.txn_id]
        self._record(("abort", txn.txn_id))
        return {}

    def _op_prepare(self, session: Session,
                    args: Dict[str, Any]) -> Dict[str, Any]:
        """2PC phase one on behalf of a remote shard coordinator.

        The transaction stays open in the session (locks held, writes
        fenced) until the coordinator's commit/abort decision arrives.
        """
        txn = self._txn(session, args)
        gid = str(args["gid"])
        self.db.prepare(txn, gid)
        self._record(("prepare", txn.txn_id, gid))
        return {}

    def _write(self, session: Session, args: Dict[str, Any],
               kind: str) -> Dict[str, Any]:
        txn = self._txn(session, args)
        relation = args["relation"]
        try:
            if kind == "delete":
                key = wire_decode(args["key"], as_key=True)
                self.db.delete(txn, relation, key)
                entry: HistoryEntry = ("delete", txn.txn_id, relation, key)
            else:
                row = wire_decode(args["row"])
                getattr(self.db, kind)(txn, relation, row)
                entry = (kind, txn.txn_id, relation, row)
        except TransactionAborted:
            # first-writer-wins: the engine requires the caller to roll
            # back.  Do it server-side so the conflict is retryable with
            # a plain new begin — and journal the abort, because the
            # rollback's WAL/compliance records are part of the history.
            self.db.abort(txn)
            del session.txns[txn.txn_id]
            self._record(("abort", txn.txn_id))
            raise
        self._record(entry)
        return {}

    def _op_insert(self, session: Session,
                   args: Dict[str, Any]) -> Dict[str, Any]:
        return self._write(session, args, "insert")

    def _op_insert_many(self, session: Session,
                        args: Dict[str, Any]) -> Dict[str, Any]:
        txn = self._txn(session, args)
        relation = args["relation"]
        rows = [wire_decode(row) for row in args["rows"]]
        try:
            self.db.insert_many(txn, relation, rows)
        except TransactionAborted:
            # same contract as the scalar writes: roll back server-side
            # so the conflict is retryable, and journal the abort
            self.db.abort(txn)
            del session.txns[txn.txn_id]
            self._record(("abort", txn.txn_id))
            raise
        self._record(("insert_many", txn.txn_id, relation, rows))
        return {}

    def _op_update(self, session: Session,
                   args: Dict[str, Any]) -> Dict[str, Any]:
        return self._write(session, args, "update")

    def _op_delete(self, session: Session,
                   args: Dict[str, Any]) -> Dict[str, Any]:
        return self._write(session, args, "delete")

    def _read_txn(self, session: Session,
                  args: Dict[str, Any]) -> Optional[Transaction]:
        if args.get("txn") is None:
            return None
        return self._txn(session, args)

    def _op_get(self, session: Session,
                args: Dict[str, Any]) -> Dict[str, Any]:
        txn = self._read_txn(session, args)
        key = wire_decode(args["key"], as_key=True)
        at = args.get("at")
        row = self.db.get(args["relation"], key, txn=txn, at=at)
        self._record(("get", args["relation"], key,
                      txn.txn_id if txn is not None else None, at))
        return {"row": wire_encode(row)}

    def _op_scan(self, session: Session,
                 args: Dict[str, Any]) -> Dict[str, Any]:
        txn = self._read_txn(session, args)
        lo = wire_decode(args["lo"], as_key=True) \
            if args.get("lo") is not None else None
        hi = wire_decode(args["hi"], as_key=True) \
            if args.get("hi") is not None else None
        at = args.get("at")
        rows = self.db.scan(args["relation"], lo=lo, hi=hi, txn=txn, at=at)
        self._record(("scan", args["relation"], lo, hi,
                      txn.txn_id if txn is not None else None, at))
        return {"rows": [[wire_encode(list(key)), wire_encode(row)]
                         for key, row in rows]}

    def _op_create_relation(self, session: Session,
                            args: Dict[str, Any]) -> Dict[str, Any]:
        name = args["name"]
        fields = [(str(fname), str(ftype))
                  for fname, ftype in args["fields"]]
        key_fields = [str(k) for k in args["key"]]
        use_tsb = args.get("use_tsb")
        schema = Schema(name, [Field(fname, FieldType(ftype))
                               for fname, ftype in fields],
                        key_fields=key_fields)
        self.db.create_relation(schema, use_tsb=use_tsb)
        self._record(("create_relation", name, fields, key_fields,
                      use_tsb))
        return {"relation": name}

    def _op_info(self, session: Session,
                 args: Dict[str, Any]) -> Dict[str, Any]:
        db = self.db
        return {
            "mode": db.mode.value,
            "epoch": db.epoch,
            "relations": db.engine.relation_names(),
            "active_txns": db.engine.txns.active_count,
            "halted": db.engine.txns.halted,
        }

    def _op_metrics(self, session: Session,
                    args: Dict[str, Any]) -> Dict[str, Any]:
        return {"metrics": self.db.metrics()}

    def _op_now(self, session: Session,
                args: Dict[str, Any]) -> Dict[str, Any]:
        # runs on the writer thread like every db touch: reading the
        # clock must not race a concurrent tick
        return {"now": self.db.now()}

    def _op_checkpoint(self, session: Session,
                       args: Dict[str, Any]) -> Dict[str, Any]:
        self.db.checkpoint()
        self._record(("checkpoint",))
        return {}

    def _op_maintenance(self, session: Session,
                        args: Dict[str, Any]) -> Dict[str, Any]:
        force = bool(args.get("force"))
        ran = self.db.maintenance(force=force)
        self._record(("maintenance", force))
        return {"ran": bool(ran)}

    def _op_audit(self, session: Session,
                  args: Dict[str, Any]) -> Dict[str, Any]:
        """Run a compliance audit on the writer thread.

        Fails with ``TXN_STATE`` while any session holds an open
        transaction (the auditor quiesces first), which is exactly the
        ordering a shard coordinator needs: resolve, then audit.
        """
        rotate = bool(args.get("rotate", True))
        workers = int(args["workers"]) if args.get("workers") else None
        report = Auditor(self.db, workers=workers).audit(rotate=rotate)
        self._record(("audit", rotate, workers))
        payload = dict(report.comparable())
        payload.update(workers=report.workers,
                       tasks_total=report.tasks_total)
        return {"report": payload}

    def _op_crash_recover(self, session: Session,
                          args: Dict[str, Any]) -> Dict[str, Any]:
        """Simulated crash + recovery (test/bench harness op).

        Every session's transaction handles die with the crash, exactly
        like in-flight work on a real server that lost power.
        ``commits`` (optional) is a 2PC coordinator's journaled
        committed-gid list for resolving in-doubt prepared transactions.
        """
        if not self.allow_crash_ops:
            raise ServerError("crash ops are disabled on this server")
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for live in sessions:
            live.txns.clear()
        session.txns.clear()
        commits = args.get("commits")
        if commits is not None:
            commits = [str(gid) for gid in commits]
        self.db.crash()
        report = self.db.recover(in_doubt_commits=commits)
        self._record(("crash_recover", commits))
        return {"redone": report.redone, "undone": report.undone,
                "restamped": report.restamped}

    def _op_ping(self, session: Session,
                 args: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True}


def replay_history(db: Any, history: List[HistoryEntry]) -> None:
    """Re-apply a journaled concurrent run as one serial history.

    ``db`` must be a fresh database built with the same configuration,
    seed data, and clock parameters as the one that produced the
    journal.  Because transaction ids and timestamps are clock ticks and
    the journal is the executor's execution order, the replayed WAL and
    compliance log are byte-identical to the concurrent run's — which is
    what makes the audit-report equality check meaningful.
    """
    txns: Dict[int, Transaction] = {}
    for entry in history:
        op = entry[0]
        if op == "begin":
            txn = db.begin()
            txns[entry[1]] = txn
            if txn.txn_id != entry[1]:
                raise ServerError(
                    f"replay diverged: begin produced txn {txn.txn_id}, "
                    f"journal says {entry[1]} — the replay database was "
                    "not built identically")
        elif op == "commit":
            db.commit(txns.pop(entry[1]))
        elif op == "abort":
            db.abort(txns.pop(entry[1]))
        elif op == "prepare":
            db.prepare(txns[entry[1]], entry[2])
        elif op in ("insert", "update"):
            getattr(db, op)(txns[entry[1]], entry[2], entry[3])
        elif op == "insert_many":
            db.insert_many(txns[entry[1]], entry[2], entry[3])
        elif op == "delete":
            db.delete(txns[entry[1]], entry[2], entry[3])
        elif op == "get":
            _, relation, key, txn_id, at = entry
            db.get(relation, key,
                   txn=txns.get(txn_id) if txn_id is not None else None,
                   at=at)
        elif op == "scan":
            _, relation, lo, hi, txn_id, at = entry
            db.scan(relation, lo=lo, hi=hi,
                    txn=txns.get(txn_id) if txn_id is not None else None,
                    at=at)
        elif op == "create_relation":
            _, name, fields, key_fields, use_tsb = entry
            schema = Schema(name, [Field(fname, FieldType(ftype))
                                   for fname, ftype in fields],
                            key_fields=key_fields)
            db.create_relation(schema, use_tsb=use_tsb)
        elif op == "checkpoint":
            db.checkpoint()
        elif op == "maintenance":
            db.maintenance(force=entry[1])
        elif op == "audit":
            _, rotate, workers = entry
            Auditor(db, workers=workers).audit(rotate=rotate)
        elif op == "crash_recover":
            txns.clear()
            db.crash()
            # pre-2PC journals recorded a bare ("crash_recover",) entry
            commits = entry[1] if len(entry) > 1 else None
            db.recover(in_doubt_commits=commits)
        else:
            raise ServerError(f"unknown journal entry {op!r}")
