"""The transaction-time storage engine (the Berkeley-DB-equivalent layer).

:class:`Engine` ties together the pager, buffer cache, WAL, lock table,
transaction manager, B+-trees (plain or time-split), the system catalog,
and the historical directory.  It implements the transaction-time data
model of Section II:

* every INSERT/UPDATE/DELETE writes a **new tuple version**; deletes write
  an *end-of-life* version; nothing is overwritten in place;
* new versions carry their transaction ID as a temporary start time and are
  **lazily timestamped** with the commit time afterwards (Salzberg's
  timestamping-after-commit, as in the paper);
* temporal reads (``at=...``) resolve any past state.

Concurrency model: strict 2PL on (relation, key) with *first-writer-wins*
semantics — a transaction that writes a key whose newest version has a
start time at or after the transaction's begin raises
:class:`TransactionAborted` (the caller aborts).  This keeps version order
physically monotone per key, which is what lets lazy timestamping stamp a
tuple **in place** without ever repositioning it (and therefore without
generating spurious compliance-log traffic).  A transaction may write each
key at most once; the TPC-C driver honours this.

Crash recovery is logical: the WAL's INSERT/PHYS_DELETE/TIME_SPLIT records
are idempotently re-applied for committed transactions and rolled back for
losers, after which committed-but-unstamped tuples are re-stamped.  The
WAL holds only what follows the last quiesced checkpoint
(:meth:`Engine.checkpoint`).  See DESIGN.md §6 for the atomic-flush-group
rule that keeps the on-disk tree structurally sound under partial flushes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..btree import BPlusTree, TSBTree
from ..btree.events import SplitEvent, TimeSplitEvent
from ..common.clock import SimulatedClock
from ..common.codec import Schema, decode_key, encode_key
from ..common.config import EngineConfig
from ..crypto.pool import DigestPool
from ..common.errors import (ConfigError, DuplicateKeyError,
                             KeyNotFoundError, RecoveryError,
                             RelationNotFoundError, TransactionAborted,
                             TransactionError, TransactionStateError)
from ..obs import Observability
from ..storage.buffer import BufferCache
from ..storage.page import FREE, LEAF
from ..storage.pager import Pager
from ..storage.record import TupleVersion
from ..txn import LockMode, Transaction, TransactionManager, WriteOp
from ..wal import TransactionLog, WalRecord, WalRecordType, analyse
from ..worm import WormServer
from .catalog import CATALOG_RELATION_ID, CATALOG_SCHEMA, RelationInfo
from .history import (HistoricalDirectory, HistPageRef, decode_hist_page,
                      encode_hist_page)

MigrationListener = Callable[[TimeSplitEvent], None]

#: run the lazy stamper opportunistically once this many stamps are
#: pending (checkpoints and audits always drain the queue)
STAMPER_BATCH = 64


@dataclass
class VersionView:
    """One tuple version as seen by a temporal query."""

    start: Optional[int]        # resolved commit time; None if uncommitted
    eol: bool
    row: Optional[Dict[str, Any]]   # decoded columns (None for end-of-life)
    raw: TupleVersion = field(repr=False, default=None)


@dataclass
class RecoveryReport:
    """What crash recovery found and did (consumed by the compliance layer).
    """

    committed: Dict[int, int] = field(default_factory=dict)
    aborted: Set[int] = field(default_factory=set)
    losers: Set[int] = field(default_factory=set)
    redone: int = 0
    undone: int = 0
    restamped: int = 0
    migrations_reapplied: int = 0
    phys_deletes_reapplied: int = 0


class Engine:
    """The storage engine for one database directory."""

    def __init__(self, data_dir: os.PathLike, clock: SimulatedClock,
                 config: Optional[EngineConfig] = None,
                 worm: Optional[WormServer] = None,
                 assign_seq: bool = False, worm_migration: bool = False,
                 split_threshold: float = 0.5,
                 worm_retention: Optional[int] = None,
                 obs: Optional[Observability] = None,
                 _create: bool = False):
        self.data_dir = Path(data_dir)
        self.clock = clock
        self.config = config if config is not None else EngineConfig()
        self.config.validate()
        self.worm = worm
        self.assign_seq = assign_seq
        self.worm_migration = worm_migration
        self.split_threshold = split_threshold
        self.worm_retention = worm_retention
        if worm_migration and worm is None:
            raise ConfigError("WORM migration requires a WORM server")

        self.obs = obs if obs is not None else Observability()
        registry = self.obs.registry
        self._c_checkpoints = registry.counter(
            "engine_checkpoints_total",
            help="checkpoints (WAL flush + full dirty-page write-back)")
        self._c_stamps = registry.counter(
            "engine_stamps_applied_total",
            help="lazy commit-time stamps applied to tuples")
        self._c_splits_leaf = registry.counter(
            "btree_splits_total", help="B+-tree page splits", kind="leaf")
        self._c_splits_index = registry.counter(
            "btree_splits_total", help="B+-tree page splits",
            kind="index")
        self._c_time_splits = registry.counter(
            "btree_time_splits_total",
            help="time splits migrating history to WORM pages")

        #: the batched digest entry points; the compliance plugin and
        #: auditors pick this up from the engine
        self.digest_pool = DigestPool(registry=registry)

        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.pager = Pager(self.data_dir / "data.db", self.config.page_size,
                           sync_writes=self.config.sync_writes,
                           io_delay=self.config.io_delay_seconds,
                           obs=self.obs)
        self.buffer = BufferCache(self.pager, self.config.buffer_pages,
                                  obs=self.obs)
        self.wal = TransactionLog(self.data_dir / "wal.log",
                                  sync_writes=self.config.sync_writes,
                                  obs=self.obs)
        # the mirror copy rides the batch's first pwrite barrier
        self.buffer.before_flush = \
            lambda page: self.wal.flush(defer_mirror=True)
        self.txns = TransactionManager(clock, self.wal, obs=self.obs)
        self.txns.undo_callback = self._undo_transaction
        self.txns.on_commit.append(self._after_commit)
        self.histdir = HistoricalDirectory(self.data_dir / "histdir.json")

        #: shared by every tree, so a listener registered once sees all
        #: splits of all relations
        self._split_listeners: List[Callable[[SplitEvent], None]] = []
        self._split_listeners.append(self._count_split)
        self.migration_listeners: List[MigrationListener] = []
        #: called by every :meth:`checkpoint` once each dirty page is on
        #: disk, before the checkpoint returns
        self.checkpoint_listeners: List[Callable[[], None]] = []

        self._relations: Dict[str, RelationInfo] = {}
        self._by_id: Dict[int, RelationInfo] = {}
        self._pending_stamps: List[Tuple[int, bytes, int, int]] = []
        self.last_commit_time = 0

        if _create:
            self._bootstrap()
        else:
            self._load_meta()
        self._catalog_tree = self._make_tree(
            RelationInfo("__catalog__", CATALOG_RELATION_ID,
                         self._catalog_root, False, CATALOG_SCHEMA))
        if not _create:
            self._reload_relations()

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(cls, data_dir: os.PathLike, clock: SimulatedClock,
               **kwargs) -> "Engine":
        """Create a fresh database under ``data_dir``."""
        if (Path(data_dir) / "data.db").exists():
            raise ConfigError(f"database already exists in {data_dir}")
        return cls(data_dir, clock, _create=True, **kwargs)

    @classmethod
    def open(cls, data_dir: os.PathLike, clock: SimulatedClock,
             **kwargs) -> "Engine":
        """Open an existing database; caller should run :meth:`recover`."""
        if not (Path(data_dir) / "data.db").exists():
            raise ConfigError(f"no database in {data_dir}")
        return cls(data_dir, clock, _create=False, **kwargs)

    def _bootstrap(self) -> None:
        catalog_root = self.buffer.new_page(LEAF)
        meta = self.buffer.get(0)
        meta.meta.update({"catalog_root": catalog_root.pgno,
                          "next_relation_id": 1})
        self.buffer.mark_dirty(meta)
        self._catalog_root = catalog_root.pgno
        self.buffer.flush_all()

    def _load_meta(self) -> None:
        meta = self.buffer.get(0)
        self._catalog_root = meta.meta["catalog_root"]

    def close(self) -> None:
        """Flush everything, mark a clean shutdown, release file handles."""
        if self.txns.active_count:
            raise TransactionStateError(
                "cannot close with active transactions")
        self.checkpoint()
        (self.data_dir / "clean_shutdown").touch()
        self.wal.close()
        self.pager.close()

    def was_clean_shutdown(self) -> bool:
        """Whether the previous incarnation closed cleanly.

        Consumes the marker: calling this after open tells the compliance
        layer whether crash recovery (START_RECOVERY on L) is needed.
        """
        marker = self.data_dir / "clean_shutdown"
        clean = marker.exists()
        marker.unlink(missing_ok=True)
        return clean

    # -- listener plumbing -------------------------------------------------------

    def add_split_listener(self,
                           listener: Callable[[SplitEvent], None]) -> None:
        """Subscribe to page splits of every relation (incl. the catalog)."""
        self._split_listeners.append(listener)

    def _count_split(self, event: SplitEvent) -> None:
        """Built-in listener: every split becomes a metric + trace event."""
        counter = self._c_splits_index if event.is_index \
            else self._c_splits_leaf
        counter.inc()
        self.obs.tracer.event("btree.split", pgno=event.old_pgno,
                              index=event.is_index)

    def _make_tree(self, info: RelationInfo):
        if info.use_tsb:
            tree = TSBTree(self.buffer, info.root_pgno,
                           self.config.page_size, info.relation_id,
                           self.split_threshold, now=self.clock.now,
                           resolve_start=self._resolved,
                           migrate=self._migrate_leaf,
                           assign_seq=self.assign_seq)
        else:
            tree = BPlusTree(self.buffer, info.root_pgno,
                             self.config.page_size, info.relation_id,
                             assign_seq=self.assign_seq)
        tree.split_listeners = self._split_listeners
        info.tree = tree
        return tree

    # -- transactions ----------------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a transaction."""
        return self.txns.begin()

    def prepare(self, txn: Transaction, gid: str) -> None:
        """2PC phase one: durably prepare under the coordinator's gid."""
        self.txns.prepare(txn, gid)

    def commit(self, txn: Transaction) -> int:
        """Commit; returns the commit time."""
        commit_time = self.txns.commit(txn)
        self.last_commit_time = commit_time
        return commit_time

    def abort(self, txn: Transaction) -> None:
        """Roll back a transaction."""
        self.txns.abort(txn)

    class _TxnContext:
        def __init__(self, engine: "Engine"):
            self._engine = engine
            self.txn: Optional[Transaction] = None
            self.commit_time: Optional[int] = None

        def __enter__(self) -> Transaction:
            self.txn = self._engine.begin()
            return self.txn

        def __exit__(self, exc_type, exc, tb) -> bool:
            from ..txn.manager import TxnState
            if self.txn.state is not TxnState.ACTIVE:
                return False  # already resolved (e.g. explicit abort)
            if exc_type is None:
                self.commit_time = self._engine.commit(self.txn)
            else:
                self._engine.abort(self.txn)
            return False

    def transaction(self) -> "_TxnContext":
        """``with engine.transaction() as txn:`` — commit on success,
        abort on exception."""
        return Engine._TxnContext(self)

    def _after_commit(self, txn: Transaction, commit_time: int) -> None:
        work = [(op.relation_id, op.key, txn.txn_id, commit_time)
                for op in txn.writes]
        self._pending_stamps.extend(work)
        # Salzberg-style timestamping-after-commit is lazy but not
        # unbounded: drain the queue opportunistically so old versions
        # become migratable/auditable without waiting for a checkpoint
        if len(self._pending_stamps) >= STAMPER_BATCH:
            self.run_stamper()

    def _undo_transaction(self, txn: Transaction) -> None:
        catalog_touched = False
        for op in reversed(txn.writes):
            info = self._tree_for_id(op.relation_id)
            try:
                info.remove(op.key, txn.txn_id)
            except KeyNotFoundError:
                pass  # never made it into the tree
            if op.relation_id == CATALOG_RELATION_ID:
                catalog_touched = True
        if catalog_touched:
            self._reload_relations()

    # -- lazy timestamping ---------------------------------------------------------

    def run_stamper(self) -> int:
        """Apply all pending commit-time stamps; returns how many."""
        work, self._pending_stamps = self._pending_stamps, []
        return self._apply_stamps(work)

    @property
    def pending_stamp_count(self) -> int:
        """Tuples awaiting their lazy commit-time stamp."""
        return len(self._pending_stamps)

    def _apply_stamps(self, work) -> int:
        done = 0
        for relation_id, key, txn_id, commit_time in work:
            tree = self._tree_for_id(relation_id)
            try:
                tree.stamp(key, txn_id, commit_time)
                done += 1
            except KeyNotFoundError:
                # already stamped (recovery re-stamp) or vacuumed
                pass
        self._c_stamps.inc(done)
        return done

    # -- DDL ---------------------------------------------------------------------------

    def create_relation(self, schema: Schema, use_tsb: Optional[bool] = None,
                        txn: Optional[Transaction] = None) -> RelationInfo:
        """Create a relation; its catalog tuple is written transactionally.
        """
        if use_tsb is None:
            use_tsb = self.worm_migration
        current = self._relations.get(schema.name)
        if current is not None:
            raise DuplicateKeyError(f"relation {schema.name!r} exists")
        meta = self.buffer.get(0)
        relation_id = meta.meta["next_relation_id"]
        meta.meta["next_relation_id"] = relation_id + 1
        self.buffer.mark_dirty(meta)
        root = self.buffer.new_page(LEAF)
        info = RelationInfo(schema.name, relation_id, root.pgno,
                            use_tsb, schema)
        self._make_tree(info)
        own_txn = txn is None
        if own_txn:
            txn = self.begin()
        try:
            payload = CATALOG_SCHEMA.encode_payload(info.catalog_row())
            self._write_version(txn, self._catalog_handle(),
                                encode_key((schema.name,)), payload,
                                eol=False, kind="insert")
            self._relations[schema.name] = info
            self._by_id[relation_id] = info
            if own_txn:
                self.commit(txn)
        except Exception:
            if own_txn:
                self.abort(txn)
            raise
        return info

    def drop_relation(self, name: str,
                      txn: Optional[Transaction] = None) -> None:
        """Drop a relation — an end-of-life catalog version; "its tuples …
        will be kept until they expire, just like any other data"."""
        self._require_relation(name)
        own_txn = txn is None
        if own_txn:
            txn = self.begin()
        try:
            self._write_version(txn, self._catalog_handle(),
                                encode_key((name,)), b"", eol=True,
                                kind="delete")
            if own_txn:
                self.commit(txn)
        except Exception:
            if own_txn:
                self.abort(txn)
            raise
        del self._by_id[self._relations[name].relation_id]
        del self._relations[name]

    def relation_names(self) -> List[str]:
        """Names of live relations."""
        return sorted(self._relations)

    def relation(self, name: str) -> RelationInfo:
        """Handle for a live relation."""
        return self._require_relation(name)

    def _catalog_handle(self) -> RelationInfo:
        info = RelationInfo("__catalog__", CATALOG_RELATION_ID,
                            self._catalog_root, False, CATALOG_SCHEMA)
        info.tree = self._catalog_tree
        return info

    def _require_relation(self, name: str) -> RelationInfo:
        try:
            return self._relations[name]
        except KeyError:
            raise RelationNotFoundError(f"no relation {name!r}") from None

    def _tree_for_id(self, relation_id: int):
        if relation_id == CATALOG_RELATION_ID:
            return self._catalog_tree
        info = self._by_id.get(relation_id)
        if info is None:
            raise RelationNotFoundError(
                f"no relation with id {relation_id}")
        return info.tree

    def _reload_relations(self) -> None:
        """Rebuild the relation map from the on-disk catalog."""
        self._relations = {}
        self._by_id = {}
        by_name: Dict[bytes, List[TupleVersion]] = {}
        for entry in self._catalog_tree.iter_entries():
            by_name.setdefault(entry.key, []).append(entry)
        for key, versions in by_name.items():
            visible = [v for v in versions if self._visible_to(v, None)]
            if not visible:
                continue
            last = visible[-1]
            if last.eol:
                continue
            row = CATALOG_SCHEMA.decode_payload(last.payload)
            info = RelationInfo.from_catalog_row(row)
            self._make_tree(info)
            self._relations[info.name] = info
            self._by_id[info.relation_id] = info

    # -- DML -----------------------------------------------------------------------------

    def insert(self, txn: Transaction, relation: str,
               row: Dict[str, Any]) -> None:
        """Insert a new tuple (fails if a live version exists)."""
        info = self._require_relation(relation)
        key = info.schema.encode_key_from_row(row)
        payload = info.schema.encode_payload(row)
        self._write_version(txn, info, key, payload, eol=False,
                            kind="insert")

    def insert_many(self, txn: Transaction, relation: str,
                    rows: List[Dict[str, Any]]) -> None:
        """Insert a batch of new tuples into one relation.

        Equivalent to one :meth:`insert` per row, but payloads are
        encoded through the schema's precompiled batch codec
        (:meth:`~repro.common.codec.Schema.encode_batch`), which skips
        the per-field dispatch of the scalar path.
        """
        info = self._require_relation(relation)
        payloads = info.schema.encode_batch(rows)
        for row, payload in zip(rows, payloads):
            key = info.schema.encode_key_from_row(row)
            self._write_version(txn, info, key, payload, eol=False,
                                kind="insert")

    def update(self, txn: Transaction, relation: str,
               row: Dict[str, Any]) -> None:
        """Write a new version of an existing tuple."""
        info = self._require_relation(relation)
        key = info.schema.encode_key_from_row(row)
        payload = info.schema.encode_payload(row)
        self._write_version(txn, info, key, payload, eol=False,
                            kind="update")

    def delete(self, txn: Transaction, relation: str,
               key_values: Tuple[Any, ...]) -> None:
        """Logically delete: writes an end-of-life version."""
        info = self._require_relation(relation)
        self._write_version(txn, info, encode_key(key_values), b"",
                            eol=True, kind="delete")

    def _write_version(self, txn: Transaction, info: RelationInfo,
                       key: bytes, payload: bytes, eol: bool,
                       kind: str) -> None:
        txn.require_active()
        self.txns.locks.acquire(txn.txn_id, (info.relation_id, key),
                                LockMode.EXCLUSIVE)
        last = info.tree.last_version(key)
        if last is not None:
            # An unstamped version's ``start`` is its writer's txn id.
            # If that writer has already committed, the version
            # logically carries the *commit time* — the lazy stamper
            # just has not applied it yet — and first-writer-wins must
            # test against it: comparing the raw txn id lets a
            # transaction that began before that commit write a second
            # version whose later stamp would break page sort order.
            last_time = self._resolved(last)
            if last_time is None:
                last_time = last.start
            if last_time >= txn.txn_id:
                if not last.stamped and last.start == txn.txn_id:
                    raise TransactionError(
                        f"txn {txn.txn_id} already wrote this "
                        f"{info.name} tuple; a transaction writes each "
                        "tuple at most once")
                raise TransactionAborted(
                    f"write-write conflict on {info.name}: a version "
                    f"committed after txn {txn.txn_id} began — abort "
                    "and retry")
        alive = (last is not None and not last.eol and
                 self._visible_to(last, txn))
        if kind == "insert" and alive:
            raise DuplicateKeyError(
                f"{info.name}: a live tuple with this key exists")
        if kind in ("update", "delete") and not alive:
            raise KeyNotFoundError(
                f"{info.name}: no live tuple with this key")
        record = TupleVersion(relation_id=info.relation_id, key=key,
                              start=txn.txn_id, stamped=False, eol=eol,
                              seq=0, payload=payload)
        self.wal.append(WalRecord(WalRecordType.INSERT, txn_id=txn.txn_id,
                                  tuple_bytes=record.to_bytes()))
        info.tree.insert(record)
        txn.writes.append(WriteOp(info.relation_id, key, txn.txn_id, eol))

    # -- reads -----------------------------------------------------------------------------

    def _resolved(self, version: TupleVersion) -> Optional[int]:
        if version.stamped:
            return version.start
        return self.txns.commit_times.get(version.start)

    def _visible_to(self, version: TupleVersion,
                    txn: Optional[Transaction]) -> bool:
        if version.stamped:
            return True
        if txn is not None and version.start == txn.txn_id:
            return True
        return version.start in self.txns.commit_times

    def get(self, relation: str, key_values: Tuple[Any, ...],
            txn: Optional[Transaction] = None,
            at: Optional[int] = None) -> Optional[Dict[str, Any]]:
        """Current (or as-of ``at``) row for a key, or None."""
        info = self._require_relation(relation)
        key = encode_key(key_values)
        if at is None:
            chosen = self._current_version(info, key, txn)
        else:
            chosen = self._version_as_of(info, key, at)
        if chosen is None or chosen.eol:
            return None
        return info.schema.decode_payload(chosen.payload)

    def _current_version(self, info: RelationInfo, key: bytes,
                         txn: Optional[Transaction]
                         ) -> Optional[TupleVersion]:
        for version in reversed(info.tree.versions(key)):
            if self._visible_to(version, txn):
                return version
        return None

    def _version_as_of(self, info: RelationInfo, key: bytes,
                       at: int) -> Optional[TupleVersion]:
        best: Optional[TupleVersion] = None
        best_time = -1
        candidates = list(info.tree.versions(key))
        for ref in self.histdir.lookup(info.relation_id, key):
            page = decode_hist_page(self.worm.read(ref.ref))
            candidates.extend(v for v in page if v.key == key)
        for version in candidates:
            resolved = self._resolved(version)
            if resolved is None or resolved > at:
                continue
            if resolved > best_time:
                best, best_time = version, resolved
        return best

    def versions(self, relation: str, key_values: Tuple[Any, ...],
                 include_history: bool = True) -> List[VersionView]:
        """Full version history of a key (live tree plus WORM pages)."""
        info = self._require_relation(relation)
        key = encode_key(key_values)
        raw = list(info.tree.versions(key))
        if include_history:
            for ref in self.histdir.lookup(info.relation_id, key):
                page = decode_hist_page(self.worm.read(ref.ref))
                raw.extend(v for v in page if v.key == key)
        views = [VersionView(start=self._resolved(v), eol=v.eol,
                             row=(None if v.eol else
                                  info.schema.decode_payload(v.payload)),
                             raw=v)
                 for v in raw]
        views.sort(key=lambda view: (view.start is None,
                                     view.start or 0, view.raw.start))
        return views

    def scan(self, relation: str, lo: Optional[Tuple[Any, ...]] = None,
             hi: Optional[Tuple[Any, ...]] = None,
             txn: Optional[Transaction] = None,
             at: Optional[int] = None
             ) -> List[Tuple[Tuple[Any, ...], Dict[str, Any]]]:
        """Visible rows with lo <= key < hi, as (key tuple, row) pairs."""
        info = self._require_relation(relation)
        lo_key = encode_key(lo) if lo is not None else b""
        hi_key = encode_key(hi) if hi is not None else None
        out: List[Tuple[Tuple[Any, ...], Dict[str, Any]]] = []
        entries = info.tree.range_scan(lo_key, hi_key)
        index = 0
        while index < len(entries):
            end = index
            while end < len(entries) and \
                    entries[end].key == entries[index].key:
                end += 1
            group = entries[index:end]
            index = end
            chosen: Optional[TupleVersion] = None
            if at is None:
                for version in reversed(group):
                    if self._visible_to(version, txn):
                        chosen = version
                        break
            else:
                chosen = self._best_as_of(info, group, at)
            if chosen is not None and not chosen.eol:
                out.append((decode_key(chosen.key),
                            info.schema.decode_payload(chosen.payload)))
        return out

    def _best_as_of(self, info: RelationInfo, group, at):
        key = group[0].key
        candidates = list(group)
        for ref in self.histdir.lookup(info.relation_id, key):
            page = decode_hist_page(self.worm.read(ref.ref))
            candidates.extend(v for v in page if v.key == key)
        best, best_time = None, -1
        for version in candidates:
            resolved = self._resolved(version)
            if resolved is None or resolved > at:
                continue
            if resolved > best_time:
                best, best_time = version, resolved
        return best

    def count_rows(self, relation: str) -> int:
        """Number of live (visible, non-eol) tuples."""
        return len(self.scan(relation))

    # -- physical erasure (vacuum support) ------------------------------------------------

    def physically_delete(self, relation_id: int, key: bytes,
                          start: int) -> TupleVersion:
        """Erase one stamped version from the live tree, WAL-logged.

        Used only by the shredding/vacuum machinery; ordinary deletes write
        end-of-life versions instead.
        """
        tree = self._tree_for_id(relation_id)
        self.wal.append(WalRecord(WalRecordType.PHYS_DELETE, txn_id=0,
                                  relation_id=relation_id, key=key,
                                  start=start))
        self.wal.flush()
        return tree.remove(key, start)

    # -- time-split migration ---------------------------------------------------------------

    def _migrate_leaf(self, event: TimeSplitEvent) -> str:
        """Persist a time split: WORM page, WAL record, directory entry.

        Ordering matters for crash safety: the WORM page is written first,
        then the TIME_SPLIT WAL record is flushed, then listeners (the
        compliance plugin's MIGRATE record) fire.  Recovery re-applies any
        TIME_SPLIT whose live-leaf trim never reached disk.
        """
        with self.obs.tracer.span("btree.time_split",
                                  relation=event.relation_id,
                                  pgno=event.leaf_pgno):
            ref = self.histdir.next_ref(event.relation_id)
            event.hist_ref = ref
            self.worm.create_file(ref, encode_hist_page(event.hist_entries),
                                  retention=self.worm_retention)
            self.wal.append(WalRecord(
                WalRecordType.TIME_SPLIT, relation_id=event.relation_id,
                pgno=event.leaf_pgno, hist_ref=ref,
                split_time=event.split_time))
            self.wal.flush()
            self.histdir.add(self._hist_entry(event, ref))
            for listener in self.migration_listeners:
                listener(event)
        self._c_time_splits.inc()
        return ref

    @staticmethod
    def _hist_entry(event: TimeSplitEvent, ref: str) -> HistPageRef:
        keys = [e.key for e in event.hist_entries]
        return HistPageRef(ref=ref, relation_id=event.relation_id,
                           leaf_pgno=event.leaf_pgno,
                           split_time=event.split_time,
                           lo_key=min(keys).hex(), hi_key=max(keys).hex(),
                           count=len(event.hist_entries))

    # -- checkpoint / crash / recovery ----------------------------------------------------------

    def checkpoint(self) -> int:
        """Stamp, then flush WAL and all dirty pages (the paper's
        db_checkpoint).

        A *quiesced* checkpoint — no transaction active or prepared, the
        manager not halted — also retires the WAL: every committed write
        is stamped, every page is on disk, every outcome is on L (the
        commit barrier put it there) and every projection is on the WORM
        mirror, which the auditor reads.  Recovery then replays only what
        follows this checkpoint (DESIGN.md §5).

        Returns the number of pages flushed.
        """
        with self.obs.tracer.span("engine.checkpoint") as span:
            self.run_stamper()
            self.wal.flush()
            flushed = self.buffer.flush_all()
            for listener in self.checkpoint_listeners:
                listener()
            if not self.txns.active_count and not self.txns.halted:
                self.wal.sync_mirror()
                self.wal.truncate()
            self.wal.append(WalRecord(WalRecordType.CHECKPOINT))
            self.wal.flush()
            span.set(pages=flushed)
        self._c_checkpoints.inc()
        return flushed

    def quiesce(self) -> None:
        """Drain for audit: no active txns, stamps applied, pages on disk."""
        if self.txns.active_count:
            raise TransactionStateError(
                f"{self.txns.active_count} transactions still active")
        self.checkpoint()

    def crash(self) -> None:
        """Simulate a process crash: volatile state vanishes un-flushed."""
        self.buffer.drop_all()
        self.wal.drop_buffer()
        self.wal.reopen()
        self.txns.crash_reset()
        self._pending_stamps.clear()

    def recover(self, on_outcomes: Optional[Callable] = None,
                resolve_in_doubt: Optional[Callable[[str], bool]] = None
                ) -> RecoveryReport:
        """Crash recovery: redo committed work, undo losers, re-stamp.

        ``on_outcomes`` (the compliance plugin) is invoked with the
        analysis plan after transaction outcomes are known but before any
        redo/undo is applied — the paper's "the compliance logger appends
        the corresponding ABORT and STAMP_TRANS records … the remainder of
        recovery proceeds as usual".

        ``resolve_in_doubt`` maps a 2PC coordinator gid to the commit
        decision (True = commit).  It is consulted for every prepared
        transaction with no durable outcome *before* outcomes are
        reported, so the compliance log sees the resolved truth.  When
        the WAL contains in-doubt transactions and no resolver is given,
        recovery refuses to guess — resolving them without the
        coordinator's journal could contradict a commit already applied
        on a sibling shard.

        Idempotent — running it on a cleanly shut-down database is a no-op.
        """
        with self.obs.tracer.span("engine.recover"):
            return self._recover(on_outcomes, resolve_in_doubt)

    def _resolve_in_doubt(self, plan,
                          resolve_in_doubt: Optional[Callable[[str], bool]]
                          ) -> None:
        in_doubt = plan.in_doubt
        if not in_doubt:
            return
        if resolve_in_doubt is None:
            raise RecoveryError(
                f"{len(in_doubt)} prepared transaction(s) in doubt "
                f"(gids {sorted(in_doubt.values())}); recovery needs the "
                "2PC coordinator's decisions — recover through the shard "
                "coordinator or pass resolve_in_doubt")
        for txn_id in sorted(in_doubt):
            gid = in_doubt[txn_id]
            if resolve_in_doubt(gid):
                commit_time = self.clock.tick()
                self.wal.append(WalRecord(WalRecordType.COMMIT,
                                          txn_id=txn_id,
                                          commit_time=commit_time))
                plan.committed[txn_id] = commit_time
            else:
                self.wal.append(WalRecord(WalRecordType.ABORT,
                                          txn_id=txn_id))
                plan.aborted.add(txn_id)
        self.wal.flush()

    def _recover(self, on_outcomes: Optional[Callable] = None,
                 resolve_in_doubt: Optional[Callable[[str], bool]] = None
                 ) -> RecoveryReport:
        plan = analyse(self.wal.iter_records())
        # resolve 2PC in-doubt transactions first: the report, the
        # compliance plugin, and the redo/undo pass must all see the
        # coordinator's decision, not the undecided state
        self._resolve_in_doubt(plan, resolve_in_doubt)
        report = RecoveryReport(committed=dict(plan.committed),
                                aborted=set(plan.aborted),
                                losers=set(plan.losers))
        self.txns.commit_times.update(plan.committed)
        if on_outcomes is not None:
            on_outcomes(plan)
        # a relation created shortly before the crash may have a root page
        # that exists in the file but was never flushed as a leaf
        for info in list(self._by_id.values()):
            self._ensure_root_initialised(info.root_pgno)
        # versions already migrated to WORM must not be re-inserted live
        migrated: Set[Tuple[int, bytes, int]] = set()
        for record in plan.records:
            if record.rtype == WalRecordType.TIME_SPLIT:
                for entry in decode_hist_page(self.worm.read(
                        record.hist_ref)):
                    migrated.add(entry.version_id())
        committed_inserts: List[Tuple[TupleVersion, int]] = []
        for record in plan.records:
            if record.rtype == WalRecordType.INSERT:
                version = TupleVersion.from_bytes(record.tuple_bytes)[0]
                outcome = plan.outcome_of(record.txn_id)
                if outcome == "committed":
                    commit_time = plan.committed[record.txn_id]
                    stamped_id = (version.relation_id, version.key,
                                  commit_time)
                    if stamped_id in migrated:
                        continue  # lives on a WORM historical page
                    if self._redo_insert(version, commit_time):
                        report.redone += 1
                    committed_inserts.append((version, commit_time))
                else:
                    if self._undo_insert(version):
                        report.undone += 1
            elif record.rtype == WalRecordType.PHYS_DELETE:
                if self._redo_phys_delete(record):
                    report.phys_deletes_reapplied += 1
            elif record.rtype == WalRecordType.TIME_SPLIT:
                if self._redo_time_split(record):
                    report.migrations_reapplied += 1
        # permanently abort losers so future recoveries agree
        for loser in sorted(plan.losers):
            self.wal.append(WalRecord(WalRecordType.ABORT, txn_id=loser))
        self.wal.flush()
        # re-stamp committed-but-unstamped tuples
        for version, commit_time in committed_inserts:
            tree = self._tree_for_id_or_none(version.relation_id)
            if tree is None:
                continue
            try:
                tree.stamp(version.key, version.start, commit_time)
                report.restamped += 1
            except KeyNotFoundError:
                pass  # already stamped, or vacuumed
        self._reload_relations()
        if plan.committed:
            self.last_commit_time = max(
                self.last_commit_time, max(plan.committed.values()))
        self.checkpoint()
        return report

    def _tree_for_id_or_none(self, relation_id: int):
        try:
            return self._tree_for_id(relation_id)
        except RelationNotFoundError:
            return None

    def _redo_insert(self, version: TupleVersion, commit_time: int) -> bool:
        tree = self._tree_for_id_or_none(version.relation_id)
        if tree is None:
            return False
        present = (tree.get_version(version.key, version.start) is not None
                   or tree.get_version(version.key, commit_time)
                   is not None)
        if present:
            applied = False
        else:
            tree.insert(version)
            applied = True
        if version.relation_id == CATALOG_RELATION_ID and not version.eol:
            self._register_from_catalog_tuple(version)
        return applied

    def _undo_insert(self, version: TupleVersion) -> bool:
        tree = self._tree_for_id_or_none(version.relation_id)
        if tree is None:
            return False
        try:
            tree.remove(version.key, version.start)
            return True
        except KeyNotFoundError:
            return False

    def _redo_phys_delete(self, record: WalRecord) -> bool:
        tree = self._tree_for_id_or_none(record.relation_id)
        if tree is None:
            return False
        try:
            tree.remove(record.key, record.start)
            return True
        except KeyNotFoundError:
            return False

    def _redo_time_split(self, record: WalRecord) -> bool:
        """Re-apply a migration whose live-leaf trim was lost in a crash."""
        hist_entries = decode_hist_page(self.worm.read(record.hist_ref))
        tree = self._tree_for_id_or_none(record.relation_id)
        applied = False
        if tree is not None:
            for entry in hist_entries:
                try:
                    tree.remove(entry.key, entry.start)
                    applied = True
                except KeyNotFoundError:
                    pass
        if not self.histdir.has_ref(record.hist_ref):
            event = TimeSplitEvent(relation_id=record.relation_id,
                                   leaf_pgno=record.pgno,
                                   split_time=record.split_time,
                                   hist_entries=hist_entries,
                                   hist_ref=record.hist_ref)
            self.histdir.add(self._hist_entry(event, record.hist_ref))
            for listener in self.migration_listeners:
                listener(event)
            applied = True
        return applied

    def _ensure_root_initialised(self, root_pgno: int) -> None:
        """Turn a never-flushed (still FREE) root page into an empty leaf.
        """
        root = self.buffer.get(root_pgno)
        if root.ptype == FREE:
            root.ptype = LEAF
            root.entries = []
            self.buffer.mark_dirty(root)

    def _register_from_catalog_tuple(self, version: TupleVersion) -> None:
        row = CATALOG_SCHEMA.decode_payload(version.payload)
        info = RelationInfo.from_catalog_row(row)
        if info.relation_id in self._by_id:
            return
        self._ensure_root_initialised(info.root_pgno)
        self._make_tree(info)
        self._relations[info.name] = info
        self._by_id[info.relation_id] = info
