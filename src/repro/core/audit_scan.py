"""The audit's two scans, cut into tasks (Sections IV–VI).

An audit makes one pass over the final database state and one over the
compliance log ``L``.  Both partition freely *because* the completeness
condition ``Df = Ds ∪ L`` is checked with the commutative ADD-HASH: any
partition of the tuple multiset hashes to partial digests whose
:meth:`~repro.crypto.AddHash.union` equals the digest of the whole, so
neither the number of partitions nor the order they finish in can
affect the verdict.

This module holds what one task does and how task results fold back
into the state the check phases consume:

* :func:`final_chunk_task` scans a contiguous page range of the final
  state (the audit quiesce flushed every dirty page first);
  :func:`merge_final` unions the chunks;
* :func:`tree_check_task` walks one relation's B+-tree, after the chunk
  barrier (the catalog roots come out of the chunk scan);
* :func:`log_slice_task` replays ``L`` for the pages with
  ``pgno % n == i``.  Every slice streams the whole log so its
  commit-map timeline matches at every record position (a READ_HASH
  resolves transaction ids as of the read, not the final state), but
  decodes only records whose pages it owns; :func:`merge_log` puts the
  slices back into log order.

:class:`~repro.core.audit.Auditor` builds the task lists and runs them —
in the auditing process or on a fork pool — over one
:class:`AuditContext` per process.  One chunk and one slice are the
plain single pass; there is no other implementation of either scan.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (Any, Callable, Dict, Iterable, List, Optional, Set,
                    Tuple, TypeVar)

from ..btree.integrity import check_leaf_entries, check_tree
from ..common.config import ComplianceMode
from ..common.errors import (AuditError, ComplianceLogError,
                             PageFormatError, PageNotFoundError,
                             WormFileNotFoundError)
from ..crypto import AddHash, SeqHash, h
from ..storage.page import LEAF, Page
from ..storage.record import TupleVersion
from ..temporal.catalog import CATALOG_RELATION_ID, CATALOG_SCHEMA
from ..temporal.history import decode_hist_page
from .plugin import decode_index_content, index_content_bytes
from .records import (FRAME_PREFIX, PAGE_STATE_TYPES, AuxStampEntry,
                      CLogRecord, CLogType, peek_frame)
from .snapshot import Snapshot

NormId = Tuple[int, bytes, bool, int]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: record types a slice may skip (without full decode) when it does not
#: own ``record.pgno``; control records are never skipped
_SKIP_BY_PGNO = frozenset({
    CLogType.NEW_TUPLE, CLogType.UNDO, CLogType.READ_HASH,
    CLogType.SHREDDED, CLogType.MIGRATE, CLogType.PAGE_RESET,
})


# --------------------------------------------------------------------------
# Findings and the report
# --------------------------------------------------------------------------


@dataclass
class Finding:
    """One compliance violation discovered by the audit."""

    code: str
    detail: str
    pgno: Optional[int] = None
    #: which audit phase raised it (snapshot/log/final/checks); part of
    #: the deterministic report ordering, not of the human rendering
    phase: str = ""

    def sort_key(self) -> Tuple[str, str, str, int]:
        """Deterministic ordering key, independent of discovery order."""
        return (self.phase, self.code, self.detail,
                -1 if self.pgno is None else self.pgno)

    def __str__(self) -> str:
        where = f" (page {self.pgno})" if self.pgno is not None else ""
        return f"[{self.code}]{where} {self.detail}"


@dataclass
class AuditReport:
    """Outcome of one audit run."""

    epoch: int
    ok: bool = True
    findings: List[Finding] = field(default_factory=list)
    snapshot_tuples: int = 0
    final_tuples: int = 0
    log_records: int = 0
    new_tuples: int = 0
    read_hashes_checked: int = 0
    pages_scanned: int = 0
    shredded_verified: int = 0
    migrations_verified: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    new_epoch: Optional[int] = None
    #: hex ADD-HASH digests of the two sides of ``Df = Ds ∪ L``
    expected_digest: str = ""
    final_digest: str = ""
    #: execution provenance: worker processes asked for (0 = the inline
    #: single pass) and scan tasks in the plan
    workers: int = 0
    tasks_total: int = 0
    #: phase stamped onto findings as they are added (set by the
    #: auditor's phase loop; excluded from report comparisons)
    current_phase: str = field(default="", repr=False, compare=False)

    def add(self, code: str, detail: str,
            pgno: Optional[int] = None) -> None:
        """Record a violation."""
        self.findings.append(Finding(code, detail, pgno,
                                     phase=self.current_phase))
        self.ok = False

    def extend(self, findings: List[Finding]) -> None:
        """Merge findings produced by a scan task.

        Findings that were created without a phase inherit the report's
        current phase, so every plan shape tags identically.
        """
        for finding in findings:
            if not finding.phase:
                finding.phase = self.current_phase
            self.findings.append(finding)
        if findings:
            self.ok = False

    def finalize(self) -> None:
        """Put findings into their canonical deterministic order.

        Sorting by (phase, code, detail, pgno) makes the report
        independent of discovery order — any partition of the scans and
        any worker interleaving produce the same list.
        """
        self.findings.sort(key=Finding.sort_key)

    def comparable(self) -> Dict[str, object]:
        """The report's decision-relevant content, for equality checks.

        Excludes wall-clock timings and execution provenance
        (worker/task counts), which legitimately differ between two
        runs of the same audit.
        """
        return {
            "epoch": self.epoch,
            "ok": self.ok,
            "findings": [(f.phase, f.code, f.detail, f.pgno)
                         for f in sorted(self.findings,
                                         key=Finding.sort_key)],
            "snapshot_tuples": self.snapshot_tuples,
            "final_tuples": self.final_tuples,
            "log_records": self.log_records,
            "new_tuples": self.new_tuples,
            "read_hashes_checked": self.read_hashes_checked,
            "pages_scanned": self.pages_scanned,
            "shredded_verified": self.shredded_verified,
            "migrations_verified": self.migrations_verified,
            "expected_digest": self.expected_digest,
            "final_digest": self.final_digest,
            "new_epoch": self.new_epoch,
        }

    def codes(self) -> Set[str]:
        """Distinct finding codes (handy in tests)."""
        return {f.code for f in self.findings}

    def summary(self) -> str:
        """One-paragraph human-readable result."""
        status = "COMPLIANT" if self.ok else \
            f"TAMPERING DETECTED ({len(self.findings)} findings)"
        lines = [f"Audit of epoch {self.epoch}: {status}",
                 f"  snapshot tuples: {self.snapshot_tuples}, "
                 f"final tuples: {self.final_tuples}, "
                 f"log records: {self.log_records}, "
                 f"read hashes checked: {self.read_hashes_checked}"]
        lines.extend(f"  - {finding}" for finding in self.findings[:20])
        if len(self.findings) > 20:
            lines.append(f"  … and {len(self.findings) - 20} more")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# What a task reads
# --------------------------------------------------------------------------


class AuditContext:
    """The quiesced database as one auditing process sees it.

    The chunk scan fetches pages through ``read_raw`` — the pager's own
    method in the auditing process (same counters, same simulated
    latency), a private descriptor in a pool worker — and keeps every
    page it decodes in ``pages``, so a tree walk rides on what the scan
    of the same process already parsed instead of decoding it again.
    A page the walk does not find there comes through ``reread``.
    Everything else (WORM files, the log, the mode) is read through
    ``db`` exactly as the rest of the system reads it.
    """

    def __init__(self, db: Any, snapshot: Snapshot,
                 read_raw: Optional[Callable[[int], bytes]] = None,
                 reread: Optional[Callable[[int], bytes]] = None
                 ) -> None:
        self.db = db
        self.snapshot = snapshot
        self.read_raw: Callable[[int], bytes] = read_raw \
            if read_raw is not None else db.engine.pager.read_raw
        self.reread: Callable[[int], bytes] = reread \
            if reread is not None else self.read_raw
        self.pages: Dict[int, Page] = {}

    def page(self, pgno: int) -> Page:
        """Decoded page ``pgno`` (parsed at most once per process)."""
        page = self.pages.get(pgno)
        if page is None:
            page = self.pages[pgno] = Page.from_bytes(self.reread(pgno))
        return page


#: the forked pool worker's context; never set in the auditing process,
#: whose tasks get their context passed in
_WORKER: Optional[AuditContext] = None


class _WorkerPages:
    """A pool worker's private descriptor on the data file.

    The one a forked child inherits shares its file offset with every
    sibling.  Never closed: the worker is terminated with its pool.
    """

    def __init__(self, pager: Any) -> None:
        self._file = open(pager.path, "rb")
        self._page_size: int = pager.page_size
        self._page_count: int = pager.page_count
        self._io_delay: float = pager.io_delay

    def reread(self, pgno: int) -> bytes:
        """A page some sibling's chunk scan already paid the device
        for: an operating-system cache hit, no simulated latency."""
        if not 0 <= pgno < self._page_count:
            raise PageNotFoundError(
                f"page {pgno} out of range (file has {self._page_count})")
        self._file.seek(pgno * self._page_size)
        raw = self._file.read(self._page_size)
        if len(raw) != self._page_size:
            raise PageNotFoundError(f"short read of page {pgno}")
        return raw

    def read_raw(self, pgno: int) -> bytes:
        """The scan's read.  Simulated device latency is served with
        ``time.sleep`` rather than the pager's calibrated spin — a
        worker blocked on I/O must yield the core, exactly like a real
        blocking read, and overlapping that latency is what the pool
        is for."""
        if self._io_delay:
            time.sleep(self._io_delay)
        return self.reread(pgno)


def bind_worker(ctx: AuditContext) -> None:
    """Pool initializer, run in each forked worker.

    The child inherits the parent's database objects, so WORM and log
    reads go through the same :meth:`WormServer.read` (clamped to the
    trusted sizes) as everywhere else; only page reads need a private
    descriptor.
    """
    global _WORKER
    pages = _WorkerPages(ctx.db.engine.pager)
    _WORKER = AuditContext(ctx.db, ctx.snapshot, pages.read_raw,
                           pages.reread)


def in_worker(task: Callable[..., _R], args: Tuple[Any, ...]) -> _R:
    """Run ``task`` against this pool worker's context."""
    if _WORKER is None:
        raise AuditError("audit worker used before initialisation")
    return task(_WORKER, *args)


# --------------------------------------------------------------------------
# Final-state scan
# --------------------------------------------------------------------------


@dataclass
class FinalChunk:
    """Result of scanning one page range of the final state."""

    lo: int
    hi: int
    findings: List[Finding]
    #: stamped versions of the chunk by identity, in page order
    tuples: Dict[NormId, bytes]
    #: per live leaf page: ``len(tuples)`` before the page was scanned,
    #: and its number — enough to name the page that first held a
    #: version when another chunk turns out to hold it too
    leaf_starts: List[int]
    leaf_pgnos: List[int]
    #: live catalog rows in page order: (relation_id, root_pgno, name)
    catalog_rows: List[Tuple[int, int, str]]
    #: ADD-HASH over ``tuples``
    partial_hash: AddHash


@dataclass
class FinalState:
    """The final-state scan's merged result."""

    tuples: Dict[NormId, bytes] = field(default_factory=dict)
    roots: Dict[int, int] = field(default_factory=dict)
    names: Dict[int, str] = field(default_factory=dict)
    root_by_name: Dict[str, int] = field(default_factory=dict)
    #: union of the chunks' partial ADD-HASHes; None when a version id
    #: spans chunks and the digest must come from ``tuples`` instead
    add_hash: Optional[AddHash] = None


def final_chunk_task(ctx: AuditContext, lo: int, hi: int) -> FinalChunk:
    """Scan pages ``[lo, hi)`` of the final state.

    A version seen twice inside the chunk is reported here; one that
    another chunk also holds is reported by :func:`merge_final`.
    """
    read_raw, pages = ctx.read_raw, ctx.pages
    findings: List[Finding] = []
    tuples: Dict[NormId, bytes] = {}
    leaf_starts: List[int] = []
    leaf_pgnos: List[int] = []
    rows: List[Tuple[int, int, str]] = []
    for pgno in range(lo, hi):
        try:
            page = pages[pgno] = Page.from_bytes(read_raw(pgno))
        except PageFormatError as exc:
            findings.append(Finding("page-unparseable", str(exc),
                                    pgno=pgno))
            continue
        if page.ptype != LEAF or page.historical:
            continue
        for issue in check_leaf_entries(page):
            findings.append(Finding(issue.kind, issue.detail,
                                    pgno=issue.pgno))
        leaf_starts.append(len(tuples))
        leaf_pgnos.append(pgno)
        for version in page.entries:
            if not version.stamped:
                findings.append(Finding(
                    "unstamped-at-audit",
                    "tuple still holds a transaction id after quiesce",
                    pgno=pgno))
                continue
            nid: NormId = (version.relation_id, version.key, True,
                           version.start)
            if nid in tuples:
                findings.append(_duplicate(nid, pgno))
            tuples[nid] = version.to_bytes()
            if version.relation_id == CATALOG_RELATION_ID and \
                    not version.eol:
                row = CATALOG_SCHEMA.decode_payload(version.payload)
                rows.append((row["relation_id"], row["root_pgno"],
                             row["name"]))
    # ADD-HASH is commutative, so dict-iteration order cannot change
    # the digest
    partial = AddHash().add_many(tuples.values())
    return FinalChunk(lo, hi, findings, tuples, leaf_starts, leaf_pgnos,
                      rows, partial)


def _duplicate(nid: NormId, pgno: int) -> Finding:
    return Finding("duplicate-tuple",
                   f"version {nid!r} appears on two pages", pgno=pgno)


def merge_final(chunks: List[FinalChunk],
                report: AuditReport) -> FinalState:
    """Union the chunk scans (in page order) into the final state."""
    final = FinalState()
    partial: Optional[AddHash] = AddHash()
    for chunk in chunks:
        report.pages_scanned += chunk.hi - chunk.lo
        report.extend(chunk.findings)
        shared = final.tuples.keys() & chunk.tuples.keys()
        if shared:
            # tampering put one version id into two chunks: report it
            # on the page that first holds it in this chunk, and let
            # the digest come from the merged dict — the union of the
            # partial hashes would count the version twice
            partial = None
            position = {nid: i for i, nid in enumerate(chunk.tuples)}
            report.extend([
                _duplicate(nid, chunk.leaf_pgnos[bisect_right(
                    chunk.leaf_starts, position[nid]) - 1])
                for nid in shared])
        final.tuples.update(chunk.tuples)
        for relation_id, root_pgno, name in chunk.catalog_rows:
            final.roots[relation_id] = root_pgno
            final.names[relation_id] = name
            final.root_by_name[name] = relation_id
        if partial is not None:
            partial = partial.union(chunk.partial_hash)
    final.add_hash = partial
    report.final_tuples = len(final.tuples)
    return final


def tree_check_task(ctx: AuditContext, relation_id: int,
                    root: int) -> List[Finding]:
    """Index-consistency walk of one relation's tree."""
    try:
        return [Finding(issue.kind,
                        f"relation {relation_id}: {issue.detail}",
                        pgno=issue.pgno)
                for issue in check_tree(ctx.page, root)]
    except PageFormatError as exc:
        return [Finding("tree-unreadable",
                        f"relation {relation_id}: {exc}", pgno=root)]


# --------------------------------------------------------------------------
# Compliance-log scan
# --------------------------------------------------------------------------


class ScanState:
    """The log-scan state the audit's check phases consume
    (:func:`merge_log`'s result)."""

    def __init__(self) -> None:
        self.commit_map: Dict[int, int] = {}
        self.aborted: Set[int] = set()
        self.stamp_times: List[int] = []
        self.recovery_times: List[int] = []
        self.new_tuples: List[TupleVersion] = []
        self.shredded: List[Tuple[NormId, bytes, int, CLogRecord]] = []
        self.shredded_ids: Set[NormId] = set()
        self.migrated_ids: Set[NormId] = set()
        self.migrate_refs: Set[str] = set()
        self.aux_entries: List[AuxStampEntry] = []
        self.undos: List[Tuple[CLogRecord, TupleVersion, NormId]] = []


class LogScan(ScanState):
    """Forward pass over the epoch's compliance log, for one slice.

    Slice ``slice_index`` of ``slice_count`` owns the pages with
    ``pgno % slice_count == slice_index`` (one slice owns them all).
    Every slice applies the *control* records (STAMP_TRANS / ABORT /
    START_RECOVERY / CLOSE_EPOCH / CHECKPOINT) so its commit-map
    timeline is the same at every record position — READ_HASH replay
    must resolve transaction ids against the commit map *as of the
    read*, not the final one — while page-keyed records (NEW_TUPLE,
    UNDO, PAGE_SPLIT, READ_HASH, SHREDDED, PAGE_RESET, MIGRATE) are
    handled only by their owning slice.  Each slice tracks which of its
    pages a page-state record named since the last CHECKPOINT: only
    those may legitimately be re-based by a PAGE_RESET.  Slice 0
    additionally emits the global (page-less) findings and counters, so
    the union over slices of findings and collected state does not
    depend on the slice count.
    """

    def __init__(self, db: Any, snapshot: Optional[Snapshot],
                 report: AuditReport, slice_index: int = 0,
                 slice_count: int = 1) -> None:
        super().__init__()
        self._db = db
        self.report = report
        self._slice_index = slice_index
        self._slice_count = slice_count
        #: slice 0 owns the global findings/counters of the scan
        self._primary = slice_index == 0
        self.hash_on_read: bool = \
            db.mode is ComplianceMode.HASH_ON_READ
        #: log position of each collected new_tuples/shredded/undos item
        #: — lets the merge put slices back into log order
        self.new_tuple_order: List[int] = []
        self.shredded_order: List[int] = []
        self.undo_order: List[int] = []
        # hash-page-on-read replay state (owned pages only)
        snap_leaves = snapshot.leaf_pages if snapshot is not None else {}
        snap_index = snapshot.index_pages if snapshot is not None else {}
        self.leaf_models: Dict[int, Dict[NormId, TupleVersion]] = {
            pgno: {(t.relation_id, t.key, True, t.start): t
                   for t in entries}
            for pgno, entries in snap_leaves.items()
            if self._owns_page(pgno)}
        self.index_models: Dict[int, Tuple[List[int],
                                           List[Tuple[bytes, int]]]] = {
            pgno: decode_index_content(raw)
            for pgno, raw in snap_index.items()
            if self._owns_page(pgno)}
        self._unstamped_index: Dict[int, List[Tuple[int, NormId]]] = {}
        #: owned pages named by a page-state record since the last
        #: CHECKPOINT (the epoch starts quiesced, as if just marked)
        self._unsettled: Set[int] = set()
        self._saw_recovery = False
        self._closed = False
        self._idx = -1
        # per-version normalisation memo (the replay hot path would
        # otherwise re-encode every tuple on each READ_HASH dispatch)
        self._ni_cache: Dict[int, Tuple[TupleVersion, int, NormId]] = {}
        self._nb_cache: Dict[int, Tuple[TupleVersion, int, bytes]] = {}
        self.norm_memo_hits = 0

    # -- helpers ----------------------------------------------------------------

    def _owns_page(self, pgno: int) -> bool:
        """Does this slice own ``pgno``?  (Always true for one slice.)

        Python's floored modulo keeps the rule total even for the
        sentinel ``pgno == -1`` a spurious record may carry, and every
        slice agrees on the owner, so each record is handled exactly
        once.
        """
        return self._slice_count == 1 or \
            pgno % self._slice_count == self._slice_index

    def _add_global(self, code: str, detail: str,
                    pgno: Optional[int] = None) -> None:
        """Record a page-less violation (primary slice only, so it is
        reported exactly once at any slice count)."""
        if self._primary:
            self.report.add(code, detail, pgno)

    def _norm_id(self, version: TupleVersion) -> NormId:
        if version.stamped:
            return (version.relation_id, version.key, True, version.start)
        commit_time = self.commit_map.get(version.start)
        if commit_time is not None:
            cached = self._ni_cache.get(id(version))
            if cached is not None and cached[0] is version and \
                    cached[1] == commit_time:
                self.norm_memo_hits += 1
                return cached[2]
            nid: NormId = (version.relation_id, version.key, True,
                           commit_time)
            self._ni_cache[id(version)] = (version, commit_time, nid)
            return nid
        return (version.relation_id, version.key, False, version.start)

    def _norm_bytes(self, version: TupleVersion) -> bytes:
        if version.stamped:
            return version.to_bytes()
        commit_time = self.commit_map.get(version.start)
        if commit_time is None:
            return version.to_bytes()
        # memoised per (version, resolved commit time): stamping creates
        # a fresh TupleVersion and re-encodes it, which dominated the
        # READ_HASH replay (every tuple of the page, on every read).
        # The cache pins the version object so an id() reuse after GC
        # cannot alias, and re-resolves if a later STAMP_TRANS changes
        # the commit time this version normalises to.
        cached = self._nb_cache.get(id(version))
        if cached is not None and cached[0] is version and \
                cached[1] == commit_time:
            self.norm_memo_hits += 1
            return cached[2]
        raw = version.stamp(commit_time).to_bytes()
        self._nb_cache[id(version)] = (version, commit_time, raw)
        return raw

    def _model_set(self, pgno: int, version: TupleVersion) -> None:
        nid = self._norm_id(version)
        self.leaf_models.setdefault(pgno, {})[nid] = version
        if not nid[2]:
            self._unstamped_index.setdefault(version.start, []).append(
                (pgno, nid))

    def _rebuild_model(self, pgno: int,
                       entries: Iterable[TupleVersion]) -> None:
        model: Dict[NormId, TupleVersion] = {}
        for version in entries:
            nid = self._norm_id(version)
            model[nid] = version
            if not nid[2]:
                self._unstamped_index.setdefault(
                    version.start, []).append((pgno, nid))
        self.leaf_models[pgno] = model

    # -- the pass --------------------------------------------------------------------

    def unowned(self, buf: bytes, cursor: int) -> Optional[CLogType]:
        """The frame's record type if this slice may skip it undecoded.

        Reads only the fixed header (:func:`peek_frame`); None means
        the frame must be decoded and dispatched.
        """
        rtype_i, pgno, left, right, parent = \
            peek_frame(buf, cursor + FRAME_PREFIX)
        try:
            rtype = CLogType(rtype_i)
        except ValueError:
            # unknown record type: decode fully so the failure is the
            # same at every slice count
            return None
        owns = self._owns_page
        if rtype in _SKIP_BY_PGNO:
            skip = not owns(pgno)
        elif rtype is CLogType.PAGE_SPLIT:
            skip = not (owns(pgno) or owns(left) or owns(right) or
                        owns(parent))
        else:
            skip = False
        return rtype if skip else None

    def dispatch(self, idx: int, record: CLogRecord) -> None:
        """Apply one log record (position ``idx`` in L) to the scan."""
        self._idx = idx
        if self._closed:
            self._record_after_close(record.rtype.name)
        handler = getattr(self, f"_on_{record.rtype.name.lower()}", None)
        if handler is not None:
            handler(record)
        if record.rtype in PAGE_STATE_TYPES:
            self._unsettled.update(pgno for pgno in record.state_pages()
                                   if self._owns_page(pgno))

    def note_skipped(self, idx: int, rtype: CLogType) -> None:
        """Advance past a record another slice owns.

        The record-after-close invariant must still see every log
        position.
        """
        self._idx = idx
        if self._closed:
            self._record_after_close(rtype.name)

    def _record_after_close(self, rtype_name: str) -> None:
        self._add_global("record-after-close",
                         f"{rtype_name} record appended after "
                         "CLOSE_EPOCH — a closed epoch's log was "
                         "extended")

    def _on_new_tuple(self, record: CLogRecord) -> None:
        if not self._owns_page(record.pgno):
            return
        version = TupleVersion.from_bytes(record.tuple_bytes)[0]
        self.new_tuples.append(version)
        self.new_tuple_order.append(self._idx)
        if self.hash_on_read:
            self._model_set(record.pgno, version)

    def _on_stamp_trans(self, record: CLogRecord) -> None:
        # control record: every slice applies it (the commit-map
        # timeline must be the same at each log position), but only the
        # primary voices the findings
        self.stamp_times.append(record.commit_time)
        if record.heartbeat:
            return
        if record.txn_id in self.aborted:
            self._add_global("abort-and-commit",
                             f"txn {record.txn_id} has both STAMP_TRANS "
                             "and ABORT records")
            return
        known = self.commit_map.get(record.txn_id)
        if known is not None:
            if known != record.commit_time:
                self._add_global("stamp-duplicate",
                                 f"conflicting commit times for txn "
                                 f"{record.txn_id}")
            return
        self.commit_map[record.txn_id] = record.commit_time
        # re-key replay entries that were logged before the commit
        for pgno, old_nid in self._unstamped_index.pop(record.txn_id, []):
            model = self.leaf_models.get(pgno)
            if model is None:
                continue
            version = model.pop(old_nid, None)
            if version is not None:
                model[(old_nid[0], old_nid[1], True,
                       record.commit_time)] = version

    def _on_abort(self, record: CLogRecord) -> None:
        if record.txn_id in self.commit_map:
            self._add_global("abort-and-commit",
                             f"txn {record.txn_id} has both STAMP_TRANS "
                             "and ABORT records")
            return
        self.aborted.add(record.txn_id)

    def _on_undo(self, record: CLogRecord) -> None:
        if not self._owns_page(record.pgno):
            return
        version = TupleVersion.from_bytes(record.tuple_bytes)[0]
        nid = self._norm_id(version)
        # validation is deferred to the merge (validate_undos): the
        # write-behind of an aborting transaction's pages can reach disk
        # (steal) moments before its ABORT record is appended, so
        # UNDO-before-ABORT is a legal interleaving — and the SHREDDED
        # record explaining an UNDO may live on another slice's page
        self.undos.append((record, version, nid))
        self.undo_order.append(self._idx)
        model = self.leaf_models.get(record.pgno)
        if model is not None:
            model.pop(nid, None)

    def _on_page_split(self, record: CLogRecord) -> None:
        # a split touches up to four pages (split page, both result
        # pages, parent), possibly owned by different slices: each slice
        # performs exactly the sub-operations for the pages it owns, in
        # log order.  Pages that coincide (e.g. the split page reused
        # as the left result) share one owner, so their relative order
        # of effects is preserved.
        if not self.hash_on_read:
            return
        if record.is_index:
            if self._owns_page(record.pgno) and \
                    record.pgno == record.parent_pgno:  # root index split
                self.index_models[record.pgno] = (
                    [record.left_pgno, record.right_pgno],
                    [(record.sep_key, record.sep_start)])
            elif record.pgno != record.parent_pgno and \
                    self._owns_page(record.parent_pgno):
                self._parent_insert(record)
            if self._owns_page(record.left_pgno):
                self.index_models[record.left_pgno] = \
                    decode_index_content(record.left_content[0])
            if self._owns_page(record.right_pgno):
                self.index_models[record.right_pgno] = \
                    decode_index_content(record.right_content[0])
            return
        left: List[TupleVersion] = []
        right: List[TupleVersion] = []
        if self._owns_page(record.pgno) or \
                self._owns_page(record.left_pgno):
            left = [TupleVersion.from_bytes(b)[0]
                    for b in record.left_content]
        if self._owns_page(record.pgno) or \
                self._owns_page(record.right_pgno):
            right = [TupleVersion.from_bytes(b)[0]
                     for b in record.right_content]
        if self._owns_page(record.pgno):
            old_model = self.leaf_models.get(record.pgno)
            if old_model is not None:
                combined = {self._norm_id(t) for t in left + right}
                if set(old_model) != combined:
                    self.report.add("split-content-mismatch",
                                    "PAGE_SPLIT contents do not match the "
                                    "page's replayed state",
                                    pgno=record.pgno)
            if record.pgno == record.parent_pgno:
                # root leaf became an internal node
                self.leaf_models.pop(record.pgno, None)
                self.index_models[record.pgno] = (
                    [record.left_pgno, record.right_pgno],
                    [(record.sep_key, record.sep_start)])
        if record.pgno != record.parent_pgno and \
                self._owns_page(record.parent_pgno):
            self._parent_insert(record)
        if self._owns_page(record.left_pgno):
            self._rebuild_model(record.left_pgno, left)
        if self._owns_page(record.right_pgno):
            self._rebuild_model(record.right_pgno, right)

    def _parent_insert(self, record: CLogRecord) -> None:
        parent = self.index_models.get(record.parent_pgno)
        if parent is None:
            self.report.add("split-orphan-parent",
                            "PAGE_SPLIT names a parent the auditor has "
                            "never seen", pgno=record.parent_pgno)
            return
        children, seps = parent
        sep = (record.sep_key, record.sep_start)
        idx = bisect_right(seps, sep)
        seps.insert(idx, sep)
        children.insert(idx + 1, record.right_pgno)

    def _on_read_hash(self, record: CLogRecord) -> None:
        if not self.hash_on_read:
            return
        if not self._owns_page(record.pgno):
            return
        self.report.read_hashes_checked += 1
        if record.is_index:
            index_model = self.index_models.get(record.pgno)
            if index_model is None:
                self.report.add("read-unknown-page",
                                "READ of an index page the auditor "
                                "cannot replay", pgno=record.pgno)
                return
            expected = h(index_content_bytes(index_model[0],
                                             index_model[1]))
        else:
            # a data page never seen in the snapshot or on L is replayed
            # as empty: a legitimately blank page hashes equal, while any
            # smuggled contents mismatch below
            model = self.leaf_models.setdefault(record.pgno, {})
            ordered = sorted(model.values(), key=lambda t: t.seq)
            expected = SeqHash().add_many(
                self._norm_bytes(t) for t in ordered).digest()
        if expected != record.page_hash:
            self.report.add("read-hash-mismatch",
                            "a transaction read page contents that L "
                            "cannot explain — state-reversion or direct "
                            "page tampering", pgno=record.pgno)

    def _on_shredded(self, record: CLogRecord) -> None:
        if not self._owns_page(record.pgno):
            return
        nid = (record.relation_id, record.key, True, record.start)
        self.shredded.append((nid, record.tuple_bytes, record.timestamp,
                              record))
        self.shredded_order.append(self._idx)

    def _on_start_recovery(self, record: CLogRecord) -> None:
        self._saw_recovery = True
        self.recovery_times.append(record.timestamp)

    def _on_page_reset(self, record: CLogRecord) -> None:
        if not self._owns_page(record.pgno):
            return
        if not self._saw_recovery:
            self.report.add("reset-outside-recovery",
                            "PAGE_RESET with no preceding START_RECOVERY",
                            pgno=record.pgno)
        if record.pgno not in self._unsettled:
            # at the last CHECKPOINT this page on disk equalled its
            # replayed state, and nothing on L has touched it since:
            # recovery has nothing to re-base, so the reset can only
            # launder contents the page's replay cannot explain
            self.report.add("reset-unexplained",
                            "PAGE_RESET of a page no record named since "
                            "the last CHECKPOINT", pgno=record.pgno)
        if not self.hash_on_read:
            return
        if record.is_index:
            self.index_models[record.pgno] = decode_index_content(
                record.left_content[0])
        else:
            entries = [TupleVersion.from_bytes(b)[0]
                       for b in record.left_content]
            self._rebuild_model(record.pgno, entries)

    def _on_checkpoint(self, record: CLogRecord) -> None:
        self._unsettled.clear()

    def _on_close_epoch(self, record: CLogRecord) -> None:
        # seal() terminates the epoch with this record; a live epoch's
        # audit never sees one, and nothing may follow it (checked in
        # dispatch / note_skipped)
        self._closed = True

    def _on_migrate(self, record: CLogRecord) -> None:
        if not self._owns_page(record.pgno):
            return
        if record.hist_ref:
            self.migrate_refs.add(record.hist_ref)
        if record.key:
            return  # re-migration after WORM shredding: chain record only
        try:
            entries = decode_hist_page(
                self._db.worm.read(record.hist_ref))
        except WormFileNotFoundError:
            self.report.add("migrate-missing-page",
                            f"MIGRATE names WORM file {record.hist_ref} "
                            "which does not exist")
            return
        model = self.leaf_models.get(record.pgno)
        for version in entries:
            nid = self._norm_id(version)
            self.migrated_ids.add(nid)
            if model is not None:
                model.pop(nid, None)


@dataclass
class LogSlice:
    """Result of one ownership slice of the compliance-log scan.

    ``*_order`` holds the log position of each collected item, so
    :func:`merge_log` can put several slices back into log order.
    """

    findings: List[Finding]
    log_records: int
    read_hashes: int
    new_tuples: List[TupleVersion]
    new_tuple_order: List[int]
    shredded: List[Tuple[NormId, bytes, int, CLogRecord]]
    shredded_order: List[int]
    undos: List[Tuple[CLogRecord, TupleVersion, NormId]]
    undo_order: List[int]
    migrated_ids: Set[NormId]
    migrate_refs: Set[str]
    commit_map: Dict[int, int]
    aborted: Set[int]
    stamp_times: List[int]
    recovery_times: List[int]
    norm_memo_hits: int


def log_slice_task(ctx: AuditContext, slice_index: int,
                   slice_count: int) -> LogSlice:
    """Replay ``L`` for one ownership slice.

    A record is peeked before decoding only when another slice could
    own it; a single slice decodes every frame straight away.
    """
    db = ctx.db
    report = AuditReport(epoch=db.epoch)
    scan = LogScan(
        db, ctx.snapshot if db.mode is ComplianceMode.HASH_ON_READ
        else None, report, slice_index, slice_count)
    sliced = slice_count > 1
    records = 0
    try:
        for idx, (_, buf, cursor) in enumerate(db.clog.frames()):
            skipped = scan.unowned(buf, cursor) if sliced else None
            if skipped is not None:
                scan.note_skipped(idx, skipped)
            else:
                scan.dispatch(idx, CLogRecord.from_bytes(buf, cursor)[0])
            records = idx + 1
    except ComplianceLogError as exc:
        # every slice stops at the same frame; one voice reports it
        if slice_index == 0:
            report.add("log-corrupt", str(exc))
    return LogSlice(
        findings=report.findings, log_records=records,
        read_hashes=report.read_hashes_checked,
        new_tuples=scan.new_tuples,
        new_tuple_order=scan.new_tuple_order,
        shredded=scan.shredded, shredded_order=scan.shredded_order,
        undos=scan.undos, undo_order=scan.undo_order,
        migrated_ids=scan.migrated_ids, migrate_refs=scan.migrate_refs,
        commit_map=scan.commit_map, aborted=scan.aborted,
        stamp_times=scan.stamp_times,
        recovery_times=scan.recovery_times,
        norm_memo_hits=scan.norm_memo_hits)


def _in_log_order(parts: List[Tuple[List[int], List[_T]]]) -> List[_T]:
    """Items of several slices, back in their order on L."""
    if len(parts) == 1:
        return parts[0][1]
    pairs = sorted((pair for order, items in parts
                    for pair in zip(order, items)), key=itemgetter(0))
    return [item for _, item in pairs]


def merge_log(slices: List[LogSlice], report: AuditReport) -> ScanState:
    """Fold the slice scans (slice 0 first) into the checks' state."""
    merged = ScanState()
    # control state is identical across slices by construction; take
    # the primary's copy
    primary = slices[0]
    report.log_records += primary.log_records
    merged.commit_map = primary.commit_map
    merged.aborted = primary.aborted
    merged.stamp_times = primary.stamp_times
    merged.recovery_times = primary.recovery_times
    for part in slices:
        report.extend(part.findings)
        report.read_hashes_checked += part.read_hashes
        merged.migrated_ids |= part.migrated_ids
        merged.migrate_refs |= part.migrate_refs
    merged.new_tuples = _in_log_order(
        [(part.new_tuple_order, part.new_tuples) for part in slices])
    merged.shredded = _in_log_order(
        [(part.shredded_order, part.shredded) for part in slices])
    merged.undos = _in_log_order(
        [(part.undo_order, part.undos) for part in slices])
    merged.shredded_ids = {entry[0] for entry in merged.shredded}
    validate_undos(merged.undos, merged.commit_map, merged.aborted,
                   merged.shredded_ids, report)
    return merged


def validate_undos(undos: List[Tuple[CLogRecord, TupleVersion, NormId]],
                   commit_map: Dict[int, int], aborted: Set[int],
                   shredded_ids: Set[NormId],
                   report: AuditReport) -> None:
    """End-of-scan validation of deferred UNDO records.

    Identities are re-resolved against the *final* commit map, since a
    commit's STAMP_TRANS may trail its tuples' page flushes.  Runs once
    over the merged slices — the UNDO and the SHREDDED record that
    explains it may live on pages owned by different slices.
    """
    for record, version, _ in undos:
        if version.stamped:
            nid: NormId = (version.relation_id, version.key, True,
                           version.start)
        else:
            commit_time = commit_map.get(version.start)
            if commit_time is not None:
                nid = (version.relation_id, version.key, True,
                       commit_time)
            else:
                nid = (version.relation_id, version.key, False,
                       version.start)
        if nid[2]:
            if nid not in shredded_ids:
                report.add(
                    "undo-unexplained",
                    f"UNDO of committed version {nid!r} with no "
                    "SHREDDED record", pgno=record.pgno)
        elif version.start not in aborted:
            report.add(
                "undo-unexplained",
                f"UNDO for txn {version.start} which never aborted",
                pgno=record.pgno)
