"""Sharded compliant database: hash partitioning + 2PC coordination.

:class:`ShardedDB` spreads tuples across N shards, each of which is any
:class:`~repro.api.ComplianceBackend` — an in-process
:class:`~repro.core.database.CompliantDB` or a remote
:class:`~repro.server.client.ServerClient` — and presents the same
backend protocol itself, so loaders, drivers, and auditors run unchanged
against one shard or many.

Transactions are coordinated with the classic split:

* **single-shard transactions** (at most one shard wrote) take a 1PC
  fast path — read-only participants commit first, the writer last, and
  the coordinator journals nothing;
* **cross-shard transactions** run presumed-abort 2PC: every writer
  shard durably prepares (a PREPARE record in *its own* WAL, locks
  held), the coordinator fsyncs a COMMIT decision into its
  :class:`~repro.shard.journal.DecisionJournal`, then tells every
  participant to commit.  A crash anywhere leaves each shard's WAL with
  enough to recover deterministically: prepared transactions whose gid
  is in the journal commit, all others abort (presumed abort).

Phase-two failures after the decision is journaled do **not** un-commit
the transaction — they surface as
:class:`~repro.common.errors.ShardCommitError` naming the shards that
must be recovered through the coordinator to catch up.

Since PR 10 the per-shard loops (2PC phase one and two, scan fan-out,
``insert_many`` groups, ``create_relation``, ``checkpoint``,
``recover``/``crash_recover``) dispatch through a
:class:`~repro.shard.fanout.FanoutExecutor`, so cross-shard latency is
*max(shards)* instead of *sum(shards)*.  Semantics are unchanged — see
the executor's confinement rules and the ``fanout_workers`` knob below:
shard sets whose in-process backends share one
:class:`~repro.common.clock.SimulatedClock` (the :meth:`create` /
:meth:`open` layout) stay serial automatically, because concurrent
commits would race the clock's ticks and make timestamps, digests, and
audit attestations nondeterministic.
"""

from __future__ import annotations

import heapq
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from ..common.clock import SimulatedClock
from ..common.codec import Schema, encode_key
from ..common.config import DBConfig
from ..common.errors import (ConfigError, ServerRequestError, ShardError,
                             ShardCommitError, TransactionStateError)
from ..crypto.signatures import AuditorKey
from ..obs import Observability
from .fanout import FanoutExecutor, Outcome, resolve_workers
from .journal import DecisionJournal
from .router import ShardRouter, WarehouseRouter, make_router

#: shard directory name layout under a sharded-database base path
SHARD_DIR = "shard-{0:03d}"
META_FILE = "shard-meta.json"
JOURNAL_FILE = "2pc-journal.jsonl"


class DistributedTxn:
    """A global transaction: one lazy per-shard handle per touched shard.

    Shard handles are opened on first touch, so a transaction that never
    leaves its home shard costs exactly one backend transaction.
    ``writes`` tracks which shards were written — the 1PC/2PC decision
    at commit is ``len(writes) > 1``.
    """

    __slots__ = ("gid", "handles", "writes", "state")

    def __init__(self, gid: str):
        self.gid = gid
        self.handles: Dict[int, Any] = {}
        self.writes: Set[int] = set()
        self.state = "active"

    def require_active(self) -> None:
        if self.state != "active":
            raise TransactionStateError(
                f"global transaction {self.gid} is {self.state}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DistributedTxn({self.gid}, shards="
                f"{sorted(self.handles)}, state={self.state})")


class _ShardedTxnContext:
    """``with sharded.transaction() as txn:`` — commit/abort bracket."""

    def __init__(self, db: "ShardedDB"):
        self._db = db
        self.txn: Optional[DistributedTxn] = None
        self.commit_time: Optional[int] = None

    def __enter__(self) -> DistributedTxn:
        self.txn = self._db.begin()
        return self.txn

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self.txn is not None
        if self.txn.state != "active":
            return False  # already resolved explicitly
        if exc_type is None:
            self.commit_time = self._db.commit(self.txn)
        else:
            self._db.abort(self.txn)
        return False


class ShardedDB:
    """Coordinator over N compliance backends (ComplianceBackend itself).

    Construct directly from live backends (any mix of in-process
    databases and server clients), or use :meth:`create`/:meth:`open`
    for the on-disk layout of N in-process shards under one base path.
    """

    def __init__(self, backends: List[Any],
                 router: Optional[ShardRouter] = None,
                 journal: Optional[DecisionJournal] = None, *,
                 clock: Optional[SimulatedClock] = None,
                 auditor_key: Optional[AuditorKey] = None,
                 obs: Optional[Observability] = None,
                 journal_path: Optional[os.PathLike] = None,
                 fanout_workers: Optional[int] = None):
        if not backends:
            raise ConfigError("ShardedDB needs at least one backend")
        self.backends = list(backends)
        self.router = router if router is not None \
            else WarehouseRouter(len(self.backends))
        if self.router.shards != len(self.backends):
            raise ConfigError(
                f"router expects {self.router.shards} shards but "
                f"{len(self.backends)} backends were given")
        if journal is None:
            journal = DecisionJournal(
                Path(journal_path) if journal_path is not None
                else Path(os.getcwd()) / JOURNAL_FILE)
        self.journal = journal
        self.clock = clock
        self.auditor_key = auditor_key if auditor_key is not None \
            else AuditorKey.generate()
        self.obs = obs if obs is not None else Observability()
        # concurrency is refused (auto) or rejected (explicit) when the
        # coordinator's clock is also ticked by an in-process shard, or
        # when two in-process shards share one clock — see
        # fanout.resolve_workers for the rule's rationale
        shared_clock = self.clock is not None and any(
            hasattr(b, "engine") and
            getattr(b, "clock", None) is self.clock
            for b in self.backends)
        self.fanout_workers = resolve_workers(fanout_workers,
                                              self.backends, shared_clock)
        self.fanout = FanoutExecutor(self.fanout_workers, obs=self.obs)
        self._schemas: Dict[str, Schema] = {}
        self._gid_seq = 0
        registry = self.obs.registry
        self._c_1pc = registry.counter(
            "shard_commit_1pc_total",
            help="single-shard fast-path commits")
        self._c_2pc = registry.counter(
            "shard_commit_2pc_total",
            help="cross-shard two-phase commits")
        self._c_aborts = registry.counter(
            "shard_abort_total", help="global transaction aborts")
        self._c_cross_reads = registry.counter(
            "shard_scan_fanout_total",
            help="scans fanned out to more than one shard")

    # -- construction on disk ------------------------------------------------

    @classmethod
    def create(cls, path: os.PathLike, shards: int = 2,
               config: Optional[DBConfig] = None, *,
               router: str = WarehouseRouter.name,
               clock: Optional[SimulatedClock] = None,
               auditor_key: Optional[AuditorKey] = None,
               obs: Optional[Observability] = None,
               fanout_workers: Optional[int] = None) -> "ShardedDB":
        """Create ``shards`` fresh in-process shards under ``path``.

        All shards share one simulated clock and one auditor key, so
        cross-shard timestamps are comparable and the distributed
        auditor can sign one combined attestation.  The shared clock
        also means fan-out stays serial (``fanout_workers`` auto
        resolves to 1; asking for more raises ``ConfigError``) —
        concurrency needs per-shard clocks, i.e. remote shards.
        """
        from ..core.database import CompliantDB
        base = Path(path)
        base.mkdir(parents=True, exist_ok=True)
        clock = clock or SimulatedClock()
        key = auditor_key or AuditorKey.generate()
        backends = [
            CompliantDB.create(base / SHARD_DIR.format(i),
                               config, clock=clock, auditor_key=key)
            for i in range(shards)]
        (base / META_FILE).write_text(json.dumps(
            {"shards": shards, "router": router}, sort_keys=True))
        return cls(backends, make_router(router, shards),
                   DecisionJournal(base / JOURNAL_FILE), clock=clock,
                   auditor_key=key, obs=obs,
                   fanout_workers=fanout_workers)

    @classmethod
    def open(cls, path: os.PathLike, *,
             clock: Optional[SimulatedClock] = None,
             auditor_key: Optional[AuditorKey] = None,
             obs: Optional[Observability] = None,
             recover: bool = True,
             fanout_workers: Optional[int] = None) -> "ShardedDB":
        """Re-open a sharded database created by :meth:`create`.

        By default every shard is recovered immediately, with the
        decision journal resolving any in-doubt prepared transactions —
        opening a sharded database without its journal is exactly the
        mistake 2PC exists to prevent.
        """
        from ..core.database import CompliantDB
        base = Path(path)
        meta = json.loads((base / META_FILE).read_text())
        shards = int(meta["shards"])
        clock = clock or SimulatedClock()
        key = auditor_key or AuditorKey.generate()
        backends = [
            CompliantDB.open(base / SHARD_DIR.format(i), clock,
                             auditor_key=key)
            for i in range(shards)]
        sharded = cls(backends, make_router(str(meta["router"]), shards),
                      DecisionJournal(base / JOURNAL_FILE), clock=clock,
                      auditor_key=key, obs=obs,
                      fanout_workers=fanout_workers)
        if recover:
            sharded.recover()
        return sharded

    # -- schema routing ------------------------------------------------------

    def _schema(self, relation: str) -> Schema:
        schema = self._schemas.get(relation)
        if schema is not None:
            return schema
        # adopt from an in-process shard's catalog (reopened databases)
        for backend in self.backends:
            engine = getattr(backend, "engine", None)
            if engine is not None and relation in engine.relation_names():
                schema = engine.relation(relation).schema
                self._schemas[relation] = schema
                return schema
        raise ShardError(
            f"relation {relation!r} is unknown to the coordinator; "
            "create it through ShardedDB.create_relation")

    def _shard_of_key(self, relation: str, key: Tuple) -> int:
        self._schema(relation)  # existence check, uniform error
        return self.router.shard_of(relation, key)

    # -- transactions --------------------------------------------------------

    def begin(self) -> DistributedTxn:
        """Open a global transaction (no shard work until first touch)."""
        self._gid_seq += 1
        gid = f"g{self.journal.incarnation:03d}-{self._gid_seq:06d}"
        return DistributedTxn(gid)

    def transaction(self) -> _ShardedTxnContext:
        """Context manager: commit on success, abort on exception."""
        return _ShardedTxnContext(self)

    def _handle(self, txn: DistributedTxn, shard: int) -> Any:
        handle = txn.handles.get(shard)
        if handle is None:
            txn.require_active()
            backend = self.backends[shard]
            if hasattr(backend, "request_with_retry"):
                # begin is not bound to a handle: verbatim resend is safe
                handle = int(backend.request_with_retry(
                    "begin", retry_conflicts=True)["txn"])
            else:
                handle = backend.begin()
            txn.handles[shard] = handle
        return handle

    def commit(self, txn: DistributedTxn) -> int:
        """Commit; 1PC when at most one shard wrote, else 2PC."""
        txn.require_active()
        writers = sorted(txn.writes)
        readers = [s for s in sorted(txn.handles) if s not in txn.writes]
        if len(writers) <= 1:
            return self._commit_1pc(txn, readers, writers)
        return self._commit_2pc(txn, readers, writers)

    def _commit_1pc(self, txn: DistributedTxn, readers: List[int],
                    writers: List[int]) -> int:
        # read-only participants first: if the single writer's commit
        # then fails, nothing durable disagrees with the abort
        commit_time = 0
        try:
            for shard in readers + writers:
                time = self.backends[shard].commit(txn.handles[shard])
                commit_time = max(commit_time, int(time))
        except BaseException:
            txn.state = "aborted"
            self._abort_handles(txn, skip=set(readers))
            self._c_aborts.inc()
            raise
        txn.state = "committed"
        self._c_1pc.inc()
        return commit_time if txn.handles else self.now()

    def _commit_2pc(self, txn: DistributedTxn, readers: List[int],
                    writers: List[int]) -> int:
        with self.obs.tracer.span("shard.2pc", gid=txn.gid,
                                  writers=len(writers)):
            # phase one: every writer durably prepares under the gid —
            # concurrently, since each prepare touches one shard.  All
            # tasks run to completion; with any failure no decision is
            # journaled, so a successfully prepared shard simply aborts
            # below (presumed abort), same as the serial path's
            # never-prepared tail.
            prepared = self.fanout.map("prepare", [
                (shard,
                 lambda b=self.backends[shard], h=txn.handles[shard]:
                     b.prepare(h, txn.gid))
                for shard in writers])
            failed = [o for o in prepared if not o.ok]
            if failed:
                txn.state = "aborted"
                self._abort_handles(txn)
                self._c_aborts.inc()
                # deterministic aggregation: the lowest failing shard's
                # error — exactly what the serial in-order loop raised
                raise failed[0].error  # type: ignore[misc]
            # the decision: one fsync, after which the txn IS committed
            self.journal.log_commit(txn.gid)
            # phase two: everyone commits (readers need no prepare);
            # failures are collected per shard, never raced
            committed = self.fanout.map("commit", [
                (shard,
                 lambda b=self.backends[shard], h=txn.handles[shard]:
                     int(b.commit(h)))
                for shard in readers + writers])
            commit_time = max(
                (o.value for o in committed if o.ok), default=0)
            failures: Dict[int, BaseException] = {
                o.key: o.error for o in committed if o.error is not None}
            txn.state = "committed"
            self._c_2pc.inc()
            if failures:
                raise ShardCommitError(txn.gid, failures)
            return commit_time

    def abort(self, txn: DistributedTxn) -> None:
        """Roll back on every touched shard."""
        txn.require_active()
        txn.state = "aborted"
        self._abort_handles(txn)
        self._c_aborts.inc()

    def _abort_handles(self, txn: DistributedTxn,
                       skip: Set[int] = frozenset()) -> None:
        for shard, handle in sorted(txn.handles.items()):
            if shard in skip:
                continue
            try:
                self.backends[shard].abort(handle)
            except TransactionStateError:
                pass  # already resolved shard-side (e.g. deadlock abort)
            except ServerRequestError as exc:
                if exc.code != "TXN_STATE":
                    raise

    def prepare(self, txn: DistributedTxn, gid: str) -> None:
        """Protocol conformance only: a sharded database can act as a
        single participant in an outer 2PC only when the transaction
        touched at most one shard (nested multi-shard prepare would need
        a decision the outer coordinator cannot journal for us)."""
        txn.require_active()
        if len(txn.writes) > 1:
            raise ShardError(
                f"cannot prepare {txn.gid}: it wrote "
                f"{len(txn.writes)} shards; nested cross-shard 2PC is "
                "not supported")
        for shard in sorted(txn.writes):
            self.backends[shard].prepare(txn.handles[shard], gid)
        txn.state = "prepared"

    # -- data plane ----------------------------------------------------------

    def create_relation(self, schema: Schema,
                        use_tsb: Optional[bool] = None) -> None:
        """Create the relation on **every** shard and register its
        schema with the router (rows land where the router says, but a
        scan may touch any shard, so the catalog is global)."""
        from ..api import require_schema
        require_schema(schema)
        self._raise_first(self.fanout.map("create_relation", [
            (idx, lambda b=backend: b.create_relation(schema,
                                                      use_tsb=use_tsb))
            for idx, backend in enumerate(self.backends)]))
        self._schemas[schema.name] = schema

    def insert(self, txn: DistributedTxn, relation: str,
               row: Dict[str, Any]) -> None:
        """Insert a row on the shard owning its key."""
        schema = self._schema(relation)
        shard = self.router.shard_of(relation, schema.key_of(row))
        self.backends[shard].insert(self._handle(txn, shard), relation,
                                    row)
        txn.writes.add(shard)

    def insert_many(self, txn: DistributedTxn, relation: str,
                    rows: List[Dict[str, Any]]) -> None:
        """Batch insert, grouped per shard (order kept within a shard)."""
        schema = self._schema(relation)
        groups: Dict[int, List[Dict[str, Any]]] = {}
        for row in rows:
            shard = self.router.shard_of(relation, schema.key_of(row))
            groups.setdefault(shard, []).append(row)
        # handle opening and writes bookkeeping stay on the calling
        # thread (DistributedTxn is not shared with pool threads); only
        # the per-shard batch inserts fan out
        handles = {shard: self._handle(txn, shard)
                   for shard in sorted(groups)}
        outcomes = self.fanout.map("insert_many", [
            (shard,
             lambda b=self.backends[shard], h=handles[shard],
                    batch=groups[shard]:
                 b.insert_many(h, relation, batch))
            for shard in sorted(groups)])
        for outcome in outcomes:
            if outcome.ok:
                txn.writes.add(outcome.key)
        self._raise_first(outcomes)

    def update(self, txn: DistributedTxn, relation: str,
               row: Dict[str, Any]) -> None:
        """Write a new version on the shard owning the key."""
        schema = self._schema(relation)
        shard = self.router.shard_of(relation, schema.key_of(row))
        self.backends[shard].update(self._handle(txn, shard), relation,
                                    row)
        txn.writes.add(shard)

    def delete(self, txn: DistributedTxn, relation: str,
               key: Tuple[Any, ...]) -> None:
        """Logically delete on the shard owning the key."""
        shard = self._shard_of_key(relation, tuple(key))
        self.backends[shard].delete(self._handle(txn, shard), relation,
                                    tuple(key))
        txn.writes.add(shard)

    def get(self, relation: str, key: Tuple[Any, ...],
            txn: Optional[DistributedTxn] = None,
            at: Optional[int] = None) -> Optional[Dict[str, Any]]:
        """Point read from the owning shard (sees the transaction's own
        writes when ``txn`` is given)."""
        shard = self._shard_of_key(relation, tuple(key))
        handle = self._handle(txn, shard) if txn is not None else None
        return self.backends[shard].get(relation, tuple(key), txn=handle,
                                        at=at)

    def scan(self, relation: str,
             lo: Optional[Tuple[Any, ...]] = None,
             hi: Optional[Tuple[Any, ...]] = None,
             txn: Optional[DistributedTxn] = None,
             at: Optional[int] = None
             ) -> List[Tuple[Tuple[Any, ...], Dict[str, Any]]]:
        """Range scan fanned out to every shard that may hold rows,
        merged back into global key order.

        Each shard already returns its rows key-ordered, so the merge
        is a streaming :func:`heapq.merge` over the per-shard result
        lists — O(n log shards) instead of the old extend-then-sort's
        O(n log n) over the whole result."""
        self._schema(relation)
        shards = self.router.shards_for_scan(relation)
        if len(shards) > 1:
            self._c_cross_reads.inc()
        handles = {shard: self._handle(txn, shard) for shard in shards} \
            if txn is not None else {}
        outcomes = self.fanout.map("scan", [
            (shard,
             lambda b=self.backends[shard], h=handles.get(shard):
                 b.scan(relation, lo=lo, hi=hi, txn=h, at=at))
            for shard in shards])
        self._raise_first(outcomes)
        if len(outcomes) == 1:
            return list(outcomes[0].value)
        return list(heapq.merge(
            *(outcome.value for outcome in outcomes),
            key=lambda pair: encode_key(pair[0])))

    # -- lifecycle / maintenance ---------------------------------------------

    @property
    def halted(self) -> bool:
        """True when **any** shard is compliance-halted: a sharded
        database with one unwritable compliance log must stop accepting
        cross-shard work, or audits would diverge across shards."""
        return any(backend.halted for backend in self.backends)

    def now(self) -> int:
        """Current simulated time (the shared clock, or shard 0's)."""
        if self.clock is not None:
            return self.clock.now()
        return int(self.backends[0].now())

    def _raise_first(self, outcomes: List[Outcome]) -> List[Outcome]:
        """Re-raise the lowest-shard failure (deterministic aggregate
        of a fan-out round where the serial loop raised in shard
        order); pass the outcomes through otherwise."""
        for outcome in outcomes:
            if outcome.error is not None:
                raise outcome.error
        return outcomes

    def checkpoint(self) -> None:
        """Checkpoint every shard."""
        self._raise_first(self.fanout.map("checkpoint", [
            (idx, lambda b=backend: b.checkpoint())
            for idx, backend in enumerate(self.backends)]))

    def maintenance(self, force: bool = False) -> bool:
        """Run regret-interval duties on every shard."""
        ran = False
        for backend in self.backends:
            ran = bool(backend.maintenance(force=force)) or ran
        return ran

    def pass_time(self, duration: int) -> None:
        """Advance the shared clock, running maintenance each regret
        interval (in-process shard sets only)."""
        if self.clock is None:
            raise ShardError(
                "pass_time needs the coordinator-owned clock; remote "
                "shards advance their own time")
        interval = min(
            getattr(b, "config").compliance.regret_interval
            for b in self.backends if hasattr(b, "config"))
        remaining = duration
        while remaining > 0:
            step = min(interval, remaining)
            self.clock.advance(step)
            remaining -= step
            self.maintenance()

    def recover(self) -> Dict[int, Any]:
        """Recover every shard, resolving in-doubt prepared transactions
        against the decision journal (commit iff the gid was journaled;
        presumed abort otherwise).  Returns per-shard recovery reports
        for shards that exposed one."""
        commits = self.journal.committed_gids()
        outcomes = self.fanout.map("recover", [
            (idx, lambda b=backend: b.recover(in_doubt_commits=commits))
            for idx, backend in enumerate(self.backends)
            if hasattr(backend, "recover")])
        self._raise_first(outcomes)
        return {outcome.key: outcome.value for outcome in outcomes}

    def crash_recover(self) -> Dict[int, Any]:
        """Test harness: crash every shard, then recover them all
        through the journal (wire shards use their crash_recover op)."""
        commits = sorted(self.journal.committed_gids())

        def crash_one(backend: Any) -> Any:
            if hasattr(backend, "crash_recover"):
                return backend.crash_recover(commits=commits)
            backend.crash()
            return backend.recover(in_doubt_commits=commits)

        outcomes = self.fanout.map("crash_recover", [
            (idx, lambda b=backend: crash_one(b))
            for idx, backend in enumerate(self.backends)])
        self._raise_first(outcomes)
        return {outcome.key: outcome.value for outcome in outcomes}

    def metrics(self) -> Dict[str, Any]:
        """Coordinator counters plus every shard's full metrics report."""
        from ..obs import metrics_report
        return {
            "coordinator": metrics_report(self.obs.registry,
                                          self.obs.tracer),
            "shards": [backend.metrics() for backend in self.backends],
        }

    def close(self) -> None:
        """Clean shutdown: close every shard, then the fan-out pool,
        then the journal."""
        for backend in self.backends:
            backend.close()
        self.fanout.close()
        self.journal.close()

    def __enter__(self) -> "ShardedDB":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
