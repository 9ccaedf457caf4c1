"""The compliance logging plugin (Sections IV–V).

Mirrors the paper's implementation strategy: "we wrote a compliance logging
plugin that taps into the pread/pwrite system calls of Berkeley DB.  When a
page is written out with pwrite, this plugin parses the page, finds the
tuples that are present in the buffer-cache page but not on the disk page,
and logs them to L on WORM."

Responsibilities:

* **pwrite**: diff the outgoing page against its last logged state (falling
  back to an extra disk read when unknown — the paper's "additional storage
  server I/O", avoided by "caching a separate copy of the page … on each
  pread") and emit NEW_TUPLE records for additions; in hash-page-on-read
  mode also UNDO records for removals.  Lazy-timestamp transitions (txn id →
  commit time) are recognised via the plugin's commit map and produce no
  records.
* **pread**: remember the page's state, and in hash-page-on-read mode log a
  READ_HASH record with the sequential hash ``Hs`` of the page as read
  (tuples ordered by tuple order number; unstamped tuples of committed
  transactions hashed in stamped form so the auditor's replay — which knows
  commit times from earlier STAMP_TRANS records — agrees).
* **commit/abort**: append STAMP_TRANS / ABORT records, strictly after the
  outcome is durable.
* **splits & migrations**: PAGE_SPLIT records with post-split contents,
  MIGRATE records pointing at the WORM historical page.
* **regret-interval maintenance**: flush dirty pages (the paper calls
  db_checkpoint), create the empty WORM *witness file* proving liveness,
  and emit a heartbeat STAMP_TRANS if no transaction ended this interval.
* **checkpoints** (hash-page-on-read): a CHECKPOINT marker on L after
  every full page flush, the point at which each page on disk equals the
  state L implies.
* **crash recovery**: START_RECOVERY, replayed ABORT/STAMP_TRANS outcomes
  for transactions resolved by recovery, and — in hash-page-on-read mode
  — PAGE_RESET records re-basing page replay at the crash boundary, for
  exactly the pages a page-state record named after the last durable
  CHECKPOINT.  Every other page on disk still equals L's state, so its
  diff base is filled lazily on first read or write, as after a clean
  reopen.

Compliance records are **group-committed**: appends land in the WORM
server's in-memory buffer and a single flush at each durability barrier
covers all of them.  Barriers sit at exactly the Section IV ordering
points — commit/abort durability, before a data page with still-buffered
records is physically written (tracked per page in ``_pending_pages``),
regret-interval maintenance, recovery, and shredding — so a crash at any
instant still satisfies ``Df = Ds ∪ L``.  Per-page memos
(:class:`_PageCache`) make repeated flushes and reads of an unchanged
page O(1) instead of O(tuples).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Set, Tuple

from ..common.config import ComplianceMode
from ..common.errors import PageFormatError
from ..btree.events import SplitEvent, TimeSplitEvent
from ..crypto.hashes import Buffer
from ..obs import Counter, Observability
from ..storage.page import INTERNAL, LEAF, PAGE_MAGIC, Page
from ..storage.record import TupleVersion
from ..temporal.engine import Engine
from ..txn import Transaction
from ..wal import RecoveryPlan
from .compliance_log import ComplianceLog
from .records import (FRAME_PREFIX, PAGE_STATE_TYPES, CLogRecord, CLogType,
                      peek_frame, state_pages)

#: normalised identity of a tuple version: (relation, key, stamped?, time)
NormId = Tuple[int, bytes, bool, int]

_IDX_HEAD = struct.Struct("<iI")
_IDX_SEP = struct.Struct("<Hqi")
_PAGE_PEEK = struct.Struct("<HB")  # magic, page type

#: the record types that make up the plugin's epoch state
_EPOCH_STATE_TYPES = frozenset({
    CLogType.STAMP_TRANS, CLogType.ABORT, CLogType.SHREDDED})


def _page_type(raw: bytes) -> Optional[int]:
    """Page type from the header bytes alone — no full parse."""
    if len(raw) < _PAGE_PEEK.size:
        return None
    magic, ptype = _PAGE_PEEK.unpack_from(raw, 0)
    return ptype if magic == PAGE_MAGIC else None


def index_content_bytes(children: List[int],
                        seps: List[Tuple[bytes, int]]) -> bytes:
    """Canonical encoding of an index page's routing content."""
    parts = [_IDX_HEAD.pack(children[0] if children else -1, len(seps))]
    for (key, start), child in zip(seps, children[1:]):
        parts.append(_IDX_SEP.pack(len(key), start, child))
        parts.append(key)
    return b"".join(parts)


def decode_index_content(raw: bytes) -> Tuple[List[int],
                                              List[Tuple[bytes, int]]]:
    """Inverse of :func:`index_content_bytes`."""
    leftmost, count = _IDX_HEAD.unpack_from(raw, 0)
    children = [leftmost]
    seps: List[Tuple[bytes, int]] = []
    cursor = _IDX_HEAD.size
    for _ in range(count):
        klen, start, child = _IDX_SEP.unpack_from(raw, cursor)
        cursor += _IDX_SEP.size
        seps.append((bytes(raw[cursor:cursor + klen]), start))
        children.append(child)
        cursor += klen
    return children, seps


class _PageCache:
    """Per-page memo killing redundant diffing and hashing.

    ``raw``/``norm_map``/``unresolved`` describe the page image as of the
    last pwrite diff; ``read_raw``/``read_digest``/``read_unresolved``
    the image and ``Hs`` digest of the last disk read.  ``unresolved``
    sets hold txn ids whose commit time was unknown when the entry was
    built — lazy timestamping changes those tuples' normalised identity
    the moment the commit map learns the time, so a cache entry is only
    valid while its unresolved set stays disjoint from the commit map.
    """

    __slots__ = ("raw", "norm_map", "unresolved", "read_raw",
                 "read_digest", "read_unresolved", "read_items")

    def __init__(self) -> None:
        self.raw: Optional[bytes] = None
        self.norm_map: Optional[Dict[NormId, TupleVersion]] = None
        self.unresolved: Set[int] = frozenset()
        self.read_raw: Optional[bytes] = None
        self.read_digest: Optional[bytes] = None
        self.read_unresolved: Set[int] = frozenset()
        #: the exact byte items of the last ``Hs`` fold — lets the next
        #: fold of a page that merely gained tuples resume the chain
        #: from ``read_digest`` instead of re-hashing every tuple
        self.read_items: Optional[List[Buffer]] = None


class CompliancePlugin:
    """The pread/pwrite compliance logger."""

    def __init__(self, engine: Engine, clog: ComplianceLog,
                 mode: ComplianceMode, regret_interval: int,
                 witness_retention: Optional[int] = None,
                 obs: Optional[Observability] = None):
        self.engine = engine
        self.clog = clog
        self.mode = mode
        #: the engine's digest entry points; every page digest the
        #: plugin emits goes through them
        self._pool = engine.digest_pool
        self.regret_interval = regret_interval
        self._witness_retention = witness_retention
        #: defaults to the engine's bundle so plugin metrics land in the
        #: same registry as the storage layer's
        self.obs = obs if obs is not None else engine.obs
        registry = self.obs.registry
        self._c_buffered = registry.counter(
            "clog_buffered_appends_total",
            help="records appended to the group-commit buffer")
        self._c_barrier_flushes = registry.counter(
            "clog_barrier_flushes_total",
            help="barriers that actually flushed records to WORM")
        self._c_extra_reads = registry.counter(
            "plugin_extra_disk_reads_total",
            help="old-page disk reads the pread cache missed")
        self._c_witness = registry.counter(
            "plugin_witness_files_total",
            help="empty WORM witness files created")
        self._c_hash_hits = registry.counter(
            "plugin_hash_cache_hits_total",
            help="READ_HASH digests served from the page cache")
        self._c_hash_misses = registry.counter(
            "plugin_hash_cache_misses_total",
            help="READ_HASH digests recomputed on cache miss")
        self._c_diff_hits = registry.counter(
            "plugin_diff_cache_hits_total",
            help="pwrite diffs skipped via the cached page state")
        self._c_maintenance = registry.counter(
            "maintenance_runs_total",
            help="regret-interval maintenance rounds that ran")
        #: per-record-type children of clog_records_total, bound lazily
        self._record_counters: Dict[CLogType, Counter] = {}
        #: pgno -> tuple versions — the page state L currently implies.
        #: Stored raw and normalised lazily at diff time, because lazy
        #: timestamping changes a tuple's normalised identity after commit.
        self._logged: Dict[int, List[TupleVersion]] = {}
        #: per-page diff/hash memo (see :class:`_PageCache`)
        self._page_caches: Dict[int, _PageCache] = {}
        #: pages whose buffered compliance records must reach WORM before
        #: the page's own write-back (the Section IV ordering rule)
        self._pending_pages: Set[int] = set()
        #: txn id -> commit time, learned from STAMP_TRANS we wrote
        self.commit_map: Dict[int, int] = {}
        self.aborted: Set[int] = set()
        #: (relation, key, start) of every SHREDDED record on this
        #: epoch's L, for finishing an interrupted vacuum after a crash
        self.shredded: List[Tuple[int, bytes, int]] = []
        #: pages a page-state record named after the last CHECKPOINT on
        #: L (as of :meth:`load_epoch_state`): the only pages whose disk
        #: image can differ from the state L implies after a crash
        self.unsettled: Set[int] = set()
        #: whether a page-state record was appended since the last
        #: CHECKPOINT (an epoch starts quiesced, as if just marked)
        self._unmarked = False
        self._last_stamp_time = engine.clock.now()
        self._last_witness_time = engine.clock.now()
        self._witness_seq = 0
        self._attached = False

    # -- attachment ------------------------------------------------------------

    def attach(self) -> None:
        """Register on every engine seam (idempotent)."""
        if self._attached:
            return
        self.engine.pager.pread_hooks.append(self.on_pread)
        self.engine.pager.pread_batch_hooks.append(self.on_pread_batch)
        self.engine.pager.pwrite_hooks.append(self.on_pwrite)
        self.engine.pager.pwrite_barriers.append(self._page_barrier)
        # the plugin must learn the commit time BEFORE the engine's own
        # commit listener runs the opportunistic stamper: a page flushed
        # mid-stamping would otherwise diff as an unexplained UNDO
        self.engine.txns.on_commit.insert(0, self.on_commit)
        self.engine.txns.on_abort.append(self.on_abort)
        self.engine.add_split_listener(self.on_split)
        self.engine.migration_listeners.append(self.on_migrate)
        self.engine.checkpoint_listeners.append(self.on_checkpoint)
        self._attached = True

    @property
    def hash_on_read(self) -> bool:
        """Whether the Section V refinement is active."""
        return self.mode is ComplianceMode.HASH_ON_READ

    # -- durability barriers -----------------------------------------------------

    def barrier(self) -> None:
        """Drain buffered compliance records to WORM (group commit).

        Placed at the protocol's ordering points: commit/abort
        durability, before a data page with pending records is written
        back, regret-interval maintenance, and recovery.
        """
        if self.clog.barrier():
            self._c_barrier_flushes.inc()
        self._pending_pages.clear()

    def _page_barrier(self, pgno: int) -> None:
        """Pager pwrite barrier: NEW_TUPLE et al. reach WORM before the
        data page they describe reaches the disk, and so does the WAL
        mirror copy that write-back deferred to this barrier."""
        if pgno in self._pending_pages or self.engine.wal.mirror_pending:
            self.barrier()

    def _stale(self, unresolved: Set[int]) -> bool:
        """Whether a cache entry's unresolved txns have since committed."""
        return bool(unresolved) and \
            not self.commit_map.keys().isdisjoint(unresolved)

    # -- tuple normalisation -----------------------------------------------------

    def _norm_id(self, version: TupleVersion) -> NormId:
        if version.stamped:
            return (version.relation_id, version.key, True, version.start)
        commit_time = self.commit_map.get(version.start)
        if commit_time is not None:
            return (version.relation_id, version.key, True, commit_time)
        return (version.relation_id, version.key, False, version.start)

    def _norm_bytes(self, version: TupleVersion) -> bytes:
        """Tuple bytes with the commit time substituted when known."""
        if version.stamped:
            return version.to_bytes()
        commit_time = self.commit_map.get(version.start)
        if commit_time is None:
            return version.to_bytes()
        return version.stamp(commit_time).to_bytes()

    # -- pread / pwrite hooks -------------------------------------------------------

    def on_pread(self, pgno: int, raw: bytes) -> None:
        """Cache the page's disk state; log its read hash (Section V)."""
        ptype = _page_type(raw)
        if ptype == LEAF:
            if not self.hash_on_read:
                # the pread copy only matters while the page is unknown —
                # repeat reads skip the parse entirely
                if pgno not in self._logged:
                    entries = self._parse_leaf(raw)
                    if entries is not None:
                        self._logged[pgno] = list(entries)
                return
            cache = self._page_caches.get(pgno)
            if cache is not None and cache.read_digest is not None and \
                    cache.read_raw == raw and pgno in self._logged and \
                    not self._stale(cache.read_unresolved):
                digest = cache.read_digest
                self._c_hash_hits.inc()
            else:
                result = self._leaf_read_digest(pgno, raw, cache)
                if result is None:
                    return  # corrupted: the audit's disk scan flags it
                digest = result
            self._append(CLogRecord(
                CLogType.READ_HASH, pgno=pgno, page_hash=digest,
                timestamp=self.engine.clock.now()))
        elif ptype == INTERNAL and self.hash_on_read:
            cache = self._page_caches.get(pgno)
            if cache is not None and cache.read_digest is not None and \
                    cache.read_raw == raw:
                digest = cache.read_digest
                self._c_hash_hits.inc()
            else:
                try:
                    page = Page.from_bytes(raw)
                except PageFormatError:
                    return
                digest = self._pool.h(
                    index_content_bytes(page.children, page.seps))
                if cache is None:
                    cache = self._page_caches.setdefault(pgno,
                                                         _PageCache())
                cache.read_raw = raw
                cache.read_digest = digest
                cache.read_unresolved = frozenset()
                self._c_hash_misses.inc()
            self._append(CLogRecord(
                CLogType.READ_HASH, pgno=pgno, is_index=True,
                page_hash=digest, timestamp=self.engine.clock.now()))

    def on_pread_batch(self, pages: List[Tuple[int, bytes]]) -> None:
        """Batched pread hook (buffer-pool prefetch, Section V).

        The READ_HASH records are appended strictly in page order,
        because a record's *position* in L fixes the commit-map state
        the auditor's replay will hash against (DESIGN.md §10).
        """
        for pgno, raw in pages:
            self.on_pread(pgno, raw)

    @staticmethod
    def _parse_leaf(raw: bytes):
        try:
            page = Page.from_bytes(raw)
        except PageFormatError:
            return None
        return page.entries if page.ptype == LEAF else None

    def _leaf_read_digest(self, pgno: int, raw: bytes,
                          cache: Optional[_PageCache]
                          ) -> Optional[bytes]:
        """Cache-miss ``Hs`` of a leaf read; ``None`` for corrupt pages.

        The digest comes from the batched extent walk
        (:meth:`~repro.crypto.pool.DigestPool.seq_hash_page`): stamped
        tuples hash their on-page bytes verbatim — the page encoding
        *is* the canonical encoding — and only tuples still carrying a
        txn id get the commit-time substitution.  The unresolved set
        names txns whose commit time was still unknown; the digest must
        be recomputed once they commit.  When the page changed only by
        gaining tuples since the last fold, the chain resumes from the
        cached digest and hashes just the new suffix.
        """
        try:
            # memoryview items borrow the raw buffer; it stays alive
            # (and immutable) for as long as the cache holds them
            digest, unresolved, items = self._pool.seq_hash_page_resumed(
                raw, self.commit_map.get,
                cache.read_items if cache is not None else None,
                cache.read_digest if cache is not None else None)
        except PageFormatError:
            return None
        if pgno not in self._logged:
            entries = self._parse_leaf(raw)
            if entries is None:
                return None
            self._logged[pgno] = list(entries)
        if cache is None:
            cache = self._page_caches.setdefault(pgno, _PageCache())
        cache.read_raw = raw
        cache.read_digest = digest
        cache.read_unresolved = unresolved
        cache.read_items = items
        self._c_hash_misses.inc()
        return digest

    def on_pwrite(self, pgno: int, raw: bytes) -> None:
        """Diff the outgoing page against its last logged state."""
        cache = self._page_caches.get(pgno)
        if cache is not None and cache.raw == raw:
            # byte-identical to the image of the last diff: the diff is
            # empty by construction, whatever the commit map learned
            # since (normalisation shifts both sides identically)
            self._c_diff_hits.inc()
            return
        if _page_type(raw) != LEAF:
            return
        entries = self._parse_leaf(raw)
        if entries is None:
            return
        self._diff_and_log(pgno, entries, raw=raw)

    def _diff_and_log(self, pgno: int, entries, raw=None) -> None:
        """Emit NEW_TUPLE (and UNDO) records for a page state transition.

        Used at pwrite time, and — crucially — *before* a split or
        migration redistributes a page, so that tuples that reached a page
        in memory but were never flushed still get their NEW_TUPLE records
        before the structure records that move them.

        ``raw`` is the serialised image being written (pwrite path only);
        when given, the computed normalised map is cached against it so
        the next flush of an unchanged page skips the re-parse and
        re-normalisation entirely.
        """
        cache = self._page_caches.get(pgno)
        stored = self._logged.get(pgno)
        if stored is None:
            stored = self._disk_state(pgno)
            old = {self._norm_id(t): t for t in stored}
        elif cache is not None and cache.norm_map is not None and \
                not self._stale(cache.unresolved):
            old = cache.norm_map
            self._c_diff_hits.inc()
        else:
            old = {self._norm_id(t): t for t in stored}
        new: Dict[NormId, TupleVersion] = {}
        unresolved: Set[int] = set()
        for version in entries:
            norm_id = self._norm_id(version)
            new[norm_id] = version
            if not norm_id[2]:  # commit time still unknown
                unresolved.add(version.start)
        for norm_id, version in new.items():
            if norm_id not in old:
                self._append(CLogRecord(
                    CLogType.NEW_TUPLE, pgno=pgno,
                    tuple_bytes=version.to_bytes(),
                    timestamp=self.engine.clock.now()))
        if self.hash_on_read:
            for norm_id, version in old.items():
                if norm_id not in new:
                    self._append(CLogRecord(
                        CLogType.UNDO, pgno=pgno,
                        tuple_bytes=version.to_bytes(),
                        timestamp=self.engine.clock.now()))
        self._logged[pgno] = list(entries)
        if raw is None:
            # split/migrate reshuffles: the image on disk no longer
            # matches what we diffed — drop the page's memo
            self._page_caches.pop(pgno, None)
        else:
            if cache is None:
                cache = self._page_caches.setdefault(pgno, _PageCache())
            cache.raw = raw
            cache.norm_map = new
            cache.unresolved = unresolved

    def _disk_state(self, pgno: int) -> List[TupleVersion]:
        """Fetch the old on-disk page — the extra I/O the pread cache
        usually avoids."""
        self._c_extra_reads.inc()
        try:
            page = Page.from_bytes(self.engine.pager.read_raw(pgno))
        except PageFormatError:
            return []
        if page.ptype != LEAF:
            return []
        return list(page.entries)

    # -- transaction outcomes ----------------------------------------------------------

    def on_commit(self, txn: Transaction, commit_time: int) -> None:
        """STAMP_TRANS after the commit is durable.

        The trailing barrier is the group-commit payoff: one WORM flush
        covers this STAMP_TRANS *and* every record buffered since the
        last barrier (NEW_TUPLEs, READ_HASHes of the whole transaction).
        """
        self.commit_map[txn.txn_id] = commit_time
        self._append(CLogRecord(CLogType.STAMP_TRANS, txn_id=txn.txn_id,
                                commit_time=commit_time,
                                timestamp=self.engine.clock.now()))
        self._last_stamp_time = commit_time
        self.barrier()

    def on_abort(self, txn: Transaction) -> None:
        """ABORT after the rollback is durable."""
        self.aborted.add(txn.txn_id)
        self._append(CLogRecord(CLogType.ABORT, txn_id=txn.txn_id,
                                timestamp=self.engine.clock.now()))
        self.barrier()

    # -- structure events ------------------------------------------------------------------

    def on_split(self, event: SplitEvent) -> None:
        """PAGE_SPLIT with post-split contents (data and index pages).

        For data pages, the pre-split page is first diffed-and-logged (as
        if flushed) so any tuple that reached the page only in memory gets
        its NEW_TUPLE record *before* the split record moves it.

        PAGE_SPLIT records themselves belong to the hash-page-on-read
        refinement (Section V introduces them for page replay); the basic
        log-consistent architecture needs no per-split log traffic.
        """
        if not event.is_index:
            self._diff_and_log(event.old_pgno,
                               event.left_entries + event.right_entries)
            self._logged[event.left_pgno] = list(event.left_entries)
            self._logged[event.right_pgno] = list(event.right_entries)
            if event.old_pgno not in (event.left_pgno, event.right_pgno):
                self._logged.pop(event.old_pgno, None)
            # the redistribution invalidates both halves' page memos
            self._page_caches.pop(event.left_pgno, None)
            self._page_caches.pop(event.right_pgno, None)
        if not self.hash_on_read:
            return
        record = CLogRecord(
            CLogType.PAGE_SPLIT, relation_id=event.relation_id,
            pgno=event.old_pgno, left_pgno=event.left_pgno,
            right_pgno=event.right_pgno, parent_pgno=event.parent_pgno,
            is_index=event.is_index, timestamp=self.engine.clock.now())
        if event.sep is not None:
            record.sep_key, record.sep_start = event.sep
        if event.is_index:
            record.left_content = [self._index_bytes(event.left_pgno)]
            record.right_content = [self._index_bytes(event.right_pgno)]
        else:
            record.left_content = [t.to_bytes() for t in event.left_entries]
            record.right_content = [t.to_bytes()
                                    for t in event.right_entries]
        self._append(record)

    def _index_bytes(self, pgno: int) -> bytes:
        page = self.engine.buffer.get(pgno)
        return index_content_bytes(page.children, page.seps)

    def on_migrate(self, event: TimeSplitEvent) -> None:
        """MIGRATE: history moved to a WORM page (Section VI).

        As with splits, the pre-split page is diffed-and-logged first so
        that a version which was inserted and superseded between flushes
        still has a NEW_TUPLE record before migrating.
        """
        self._diff_and_log(event.leaf_pgno,
                           event.hist_entries + event.live_entries)
        self._append(CLogRecord(
            CLogType.MIGRATE, relation_id=event.relation_id,
            pgno=event.leaf_pgno, hist_ref=event.hist_ref,
            split_time=event.split_time,
            timestamp=self.engine.clock.now()))
        state = self._logged.get(event.leaf_pgno)
        if state is not None:
            gone = {self._norm_id(v) for v in event.hist_entries}
            self._logged[event.leaf_pgno] = [
                v for v in state if self._norm_id(v) not in gone]
        self._page_caches.pop(event.leaf_pgno, None)

    # -- shredding hooks (called by the vacuum process) ---------------------------------------

    def log_shredded(self, version: TupleVersion, pgno: int,
                     timestamp: int) -> None:
        """SHREDDED: announce a tuple's erasure before it happens."""
        self.shredded.append((version.relation_id, version.key,
                              version.start))
        self._append(CLogRecord(
            CLogType.SHREDDED, relation_id=version.relation_id,
            key=version.key, start=version.start, pgno=pgno,
            tuple_bytes=version.to_bytes(), timestamp=timestamp))

    def log_migrate(self, relation_id: int, pgno: int, hist_ref: str,
                    split_time: int, superseded_ref: str,
                    timestamp: int) -> None:
        """MIGRATE: the vacuum re-migrated a historical page to a fresh
        WORM file; the record's ``key`` carries ``superseded_ref``, so
        the auditor can chain old -> new."""
        self._append(CLogRecord(
            CLogType.MIGRATE, relation_id=relation_id, pgno=pgno,
            hist_ref=hist_ref, split_time=split_time, timestamp=timestamp,
            key=superseded_ref.encode("utf-8")))

    # -- checkpoint markers ---------------------------------------------------------------------

    def on_checkpoint(self) -> None:
        """Engine checkpoint listener: every dirty page just reached disk.

        In hash-page-on-read mode the CHECKPOINT marker that bounds
        recovery's re-basing (:meth:`begin_recovery`) is durable before
        the checkpoint returns.
        """
        if self.hash_on_read:
            self._mark_checkpoint()
            self.barrier()

    def _mark_checkpoint(self) -> None:
        """Append a CHECKPOINT marker, unless the last one still holds.

        Called only right after a full page flush, when each page on disk
        equals the state L implies.  With no page-state record appended
        since the previous marker, that marker already says so.
        """
        if self._unmarked:
            self._append(CLogRecord(CLogType.CHECKPOINT,
                                    timestamp=self.engine.clock.now()))
            self._unmarked = False

    # -- regret-interval maintenance ------------------------------------------------------------

    def maintenance(self, force: bool = False) -> bool:
        """Regret-interval duties; returns True if an interval elapsed.

        The paper: "we implemented this feature by calling db_checkpoint
        once every regret interval", plus one empty witness file per
        interval and a dummy STAMP_TRANS if the system was otherwise idle.
        """
        now = self.engine.clock.now()
        if not force and now - self._last_witness_time < \
                self.regret_interval:
            return False
        with self.obs.tracer.span("plugin.maintenance"):
            self.engine.run_stamper()  # lazy stamps ride the checkpoint
            self.engine.wal.flush()
            self.engine.buffer.flush_all()
            self._witness_seq += 1
            self.clog.worm.create_file(
                self.witness_name(self._witness_seq),
                retention=self._witness_retention)
            self._c_witness.inc()
            self._last_witness_time = now
            if now - self._last_stamp_time >= self.regret_interval:
                self._append(CLogRecord(CLogType.STAMP_TRANS, txn_id=0,
                                        commit_time=now, heartbeat=True,
                                        timestamp=now))
                self._last_stamp_time = now
            # regret-interval barrier: nothing buffered may outlive the
            # interval that promised its durability
            self.barrier()
            if self.hash_on_read:
                # the marker rides the next barrier instead of costing a
                # round-trip of its own; a crash that loses it only makes
                # recovery fall back to an earlier one
                self._mark_checkpoint()
        self._c_maintenance.inc()
        return True

    def witness_name(self, seq: int) -> str:
        """WORM name of the seq-th witness file of this epoch."""
        return f"witness/epoch-{self.clog.epoch:06d}-{seq:06d}"

    # -- crash recovery ---------------------------------------------------------------------------

    def load_epoch_state(self) -> None:
        """Rebuild commit map / aborted set from the epoch's log on WORM.

        Used when re-attaching to an existing epoch (process restart or
        crash recovery): the plugin's volatile state died with the old
        process, but L survives on WORM.  Only STAMP_TRANS, ABORT and
        SHREDDED records are decoded; every other frame is read on its
        fixed header only (the auditor decodes those).  The same pass
        collects :attr:`unsettled`, the pages named by a page-state
        record after the last CHECKPOINT (or since the epoch began).
        """
        self._logged.clear()
        self._page_caches.clear()
        self._pending_pages.clear()
        self.commit_map.clear()
        self.aborted.clear()
        self.shredded.clear()
        unsettled = self.unsettled
        unsettled.clear()
        for _, buf, cursor in self.clog.frames():
            fields = peek_frame(buf, cursor + FRAME_PREFIX)
            rtype = fields[0]
            if rtype in PAGE_STATE_TYPES:
                unsettled.update(state_pages(*fields))
            elif rtype == CLogType.CHECKPOINT:
                unsettled.clear()
            if rtype not in _EPOCH_STATE_TYPES:
                continue  # only the auditor needs the other records
            record = CLogRecord.from_bytes(buf, cursor)[0]
            if record.rtype == CLogType.STAMP_TRANS:
                if not record.heartbeat:
                    self.commit_map[record.txn_id] = record.commit_time
            elif record.rtype == CLogType.ABORT:
                self.aborted.add(record.txn_id)
            else:
                self.shredded.append(
                    (record.relation_id, record.key, record.start))
        self._unmarked = bool(unsettled)

    def begin_recovery(self) -> None:
        """START_RECOVERY plus page re-basing (run before engine redo).

        Rebuilds the commit map and aborted set from the existing epoch
        log (the plugin's volatile state died with the process).  At the
        last durable CHECKPOINT every page on disk equalled the state L
        implies, so only the :attr:`unsettled` pages — named by a
        page-state record since — can disagree with L now.  In
        hash-page-on-read mode each of them gets a PAGE_RESET with its
        on-disk contents, in page order, re-basing the auditor's replay
        at the crash boundary.  Every other page keeps its replayed
        state, so a page tampered while the DBMS was down still fails
        its next READ_HASH.  Log-consistent mode re-bases nothing: the
        diff base of each page is read lazily from disk, as after a
        clean reopen.
        """
        with self.obs.tracer.span("plugin.begin_recovery"):
            self.load_epoch_state()
            self._append(CLogRecord(CLogType.START_RECOVERY,
                                    timestamp=self.engine.clock.now()))
            if self.hash_on_read:
                self._emit_page_resets()
            # recovery records must be on WORM before redo writes a page
            self.barrier()

    def _emit_page_resets(self) -> None:
        page_count = self.engine.pager.page_count
        for pgno in sorted(self.unsettled):
            if pgno >= page_count:
                continue  # only a forged record names a page never allocated
            try:
                page = Page.from_bytes(self.engine.pager.read_raw(pgno))
            except PageFormatError:
                continue
            if page.ptype == LEAF:
                self._logged[pgno] = list(page.entries)
                self._append(CLogRecord(
                    CLogType.PAGE_RESET, pgno=pgno,
                    left_content=[t.to_bytes() for t in page.entries],
                    timestamp=self.engine.clock.now()))
            elif page.ptype == INTERNAL:
                self._append(CLogRecord(
                    CLogType.PAGE_RESET, pgno=pgno, is_index=True,
                    left_content=[index_content_bytes(page.children,
                                                      page.seps)],
                    timestamp=self.engine.clock.now()))

    def recovery_outcomes(self, plan: RecoveryPlan) -> None:
        """Append the ABORT/STAMP_TRANS records recovery resolved.

        Only outcomes not already on L are appended (at most the final
        pre-crash transaction's record can be missing, since outcome
        records are written synchronously), keeping the aux log's commit
        times monotone.
        """
        missing = sorted((ct, txn) for txn, ct in plan.committed.items()
                         if txn not in self.commit_map)
        for commit_time, txn_id in missing:
            self.commit_map[txn_id] = commit_time
            self._append(CLogRecord(CLogType.STAMP_TRANS, txn_id=txn_id,
                                    commit_time=commit_time,
                                    timestamp=self.engine.clock.now()))
            self._last_stamp_time = max(self._last_stamp_time, commit_time)
        for txn_id in sorted(plan.aborted | plan.losers):
            if txn_id in self.aborted:
                continue
            self.aborted.add(txn_id)
            self._append(CLogRecord(CLogType.ABORT, txn_id=txn_id,
                                    timestamp=self.engine.clock.now()))
        self.barrier()

    # -- epoch rotation -----------------------------------------------------------------------------

    def rotate_epoch(self, clog: ComplianceLog) -> None:
        """Switch to the next epoch's log after an audit."""
        self.clog = clog
        self._pending_pages.clear()  # the seal drained the old buffer
        self.shredded.clear()
        self._unmarked = False  # the new epoch opens on a quiesced state
        self._witness_seq = 0
        self._last_stamp_time = self.engine.clock.now()
        self._last_witness_time = self.engine.clock.now()

    def on_crash(self) -> None:
        """Crash simulation: buffered records and page memos are gone.

        Called by :meth:`CompliantDB.crash` after the WORM server drops
        its buffers; :meth:`begin_recovery` rebuilds everything from L.
        """
        self._pending_pages.clear()
        self._page_caches.clear()

    # -- internals ------------------------------------------------------------------------------------

    def _append(self, record: CLogRecord) -> None:
        self.clog.append(record)
        rtype = record.rtype
        counter = self._record_counters.get(rtype)
        if counter is None:
            counter = self.obs.registry.counter(
                "clog_records_total",
                help="compliance-log records appended, by type",
                type=rtype.name)
            self._record_counters[rtype] = counter
        counter.inc()
        self._c_buffered.inc()
        if rtype in PAGE_STATE_TYPES:
            # the record gates these pages' write-back, and a crash
            # before the next CHECKPOINT makes recovery re-base them
            self._unmarked = True
            self._pending_pages.update(record.state_pages())
