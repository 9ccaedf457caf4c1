"""Forensic analysis of a failed audit.

The paper's related work ("Forensic Analysis of Database Tampering",
Pavlou & Snodgrass) pinpoints *when* and *where* a detected tampering
occurred; the paper notes that keeping the snapshot on WORM "enables
fine-grained forensic analysis if the next audit finds evidence of
tampering".  This module is that analyzer for the log-consistent
architecture.

Given a failing audit, it classifies each anomalous tuple version and
bounds the tampering:

* **where** — the page that held (or holds) the version, from the
  NEW_TUPLE record's PGNO, the snapshot's page map, or the final disk
  state;
* **when** — a `(not-before, not-after)` window: a version is known good
  at its NEW_TUPLE/ snapshot time and at every READ_HASH of its page that
  verified; the window closes at the first failing READ of that page (in
  hash-page-on-read mode) or at audit time.

The analyzer never *excuses* anything — it only annotates a failed audit
so an investigator knows where to subpoena next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..common.config import ComplianceMode
from ..common.errors import PageFormatError
from ..storage.page import LEAF, Page
from ..storage.record import TupleVersion
from .audit import AuditReport, Auditor
from .records import CLogType
from .snapshot import load_snapshot

NormId = Tuple[int, bytes, bool, int]

#: record types that carry no tuple provenance for forensics: outcome
#: markers, page-replay records, and epoch bookkeeping are consumed by
#: the audit itself and never localise a tampered version
_NO_PROVENANCE = frozenset({
    CLogType.ABORT,
    CLogType.UNDO,
    CLogType.PAGE_SPLIT,
    CLogType.START_RECOVERY,
    CLogType.PAGE_RESET,
    CLogType.CLOSE_EPOCH,
    CLogType.CHECKPOINT,
})


@dataclass
class TamperEvidence:
    """One localised piece of tampering evidence."""

    kind: str                 # missing | extra | altered | read-mismatch
    nid: Optional[NormId]
    pgno: Optional[int]
    #: tampering happened inside (not_before, not_after]
    not_before: int
    not_after: int
    detail: str = ""

    def __str__(self) -> str:
        where = f"page {self.pgno}" if self.pgno is not None else "?"
        return (f"[{self.kind}] {where}, window "
                f"({self.not_before} … {self.not_after}]: {self.detail}")


@dataclass
class ForensicReport:
    """Everything the analyzer could localise."""

    audit: AuditReport
    evidence: List[TamperEvidence] = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"Forensic analysis of epoch {self.audit.epoch}: "
                 f"{len(self.evidence)} localised finding(s)"]
        lines.extend(f"  - {item}" for item in self.evidence)
        return "\n".join(lines)


class ForensicAnalyzer:
    """Post-mortem for a failed audit."""

    def __init__(self, db, key=None):
        self._db = db
        self._auditor = Auditor(db, key=key)

    def analyze(self,
                report: Optional[AuditReport] = None) -> ForensicReport:
        """Run (or reuse) a dry-run audit and localise its findings."""
        if report is None:
            report = self._auditor.audit(rotate=False)
        forensic = ForensicReport(audit=report)
        if report.ok:
            return forensic
        db = self._db
        snapshot = load_snapshot(db.worm, self._auditor._key, db.epoch)
        now = db.clock.now()

        # index the log: per-version provenance and per-page read timeline
        first_seen: Dict[NormId, Tuple[int, int]] = {}  # nid -> (t, pgno)
        commit_map: Dict[int, int] = {}
        read_times: Dict[int, List[int]] = {}
        for _, record in db.clog.records():
            if record.rtype in _NO_PROVENANCE:
                continue
            if record.rtype == CLogType.STAMP_TRANS and \
                    not record.heartbeat:
                commit_map.setdefault(record.txn_id, record.commit_time)
            elif record.rtype == CLogType.READ_HASH and \
                    not record.is_index:
                read_times.setdefault(record.pgno, []).append(
                    record.timestamp)
        for _, record in db.clog.records():
            if record.rtype != CLogType.NEW_TUPLE:
                continue
            version = TupleVersion.from_bytes(record.tuple_bytes)[0]
            if version.stamped:
                nid = (version.relation_id, version.key, True,
                       version.start)
            else:
                commit_time = commit_map.get(version.start)
                if commit_time is None:
                    continue
                nid = (version.relation_id, version.key, True, commit_time)
            first_seen.setdefault(nid, (record.timestamp, record.pgno))
        for pgno, entries in snapshot.leaf_pages.items():
            for version in entries:
                nid = (version.relation_id, version.key, True,
                       version.start)
                first_seen.setdefault(nid, (snapshot.created_at, pgno))

        # current disk placement of every version
        on_disk: Dict[NormId, int] = {}
        for pgno in range(1, db.engine.pager.page_count):
            try:
                page = Page.from_bytes(db.engine.pager.read_raw(pgno))
            except PageFormatError:
                continue
            if page.ptype != LEAF or page.historical:
                continue
            for version in page.entries:
                if version.stamped:
                    on_disk[(version.relation_id, version.key, True,
                             version.start)] = pgno

        hash_on_read = db.mode is ComplianceMode.HASH_ON_READ
        mismatched_reads = [f for f in report.findings
                            if f.code == "read-hash-mismatch"]
        first_bad_read: Dict[int, int] = {}
        if hash_on_read:
            for finding in mismatched_reads:
                if finding.pgno is None:
                    continue
                times = read_times.get(finding.pgno, [])
                if times:
                    first_bad_read.setdefault(finding.pgno, times[-1])

        for finding in report.findings:
            if finding.code == "completeness":
                self._localise_completeness(
                    forensic, finding, snapshot, first_seen, on_disk,
                    first_bad_read, now)
            elif finding.code == "read-hash-mismatch":
                good = [t for t in read_times.get(finding.pgno, [])]
                forensic.evidence.append(TamperEvidence(
                    kind="read-mismatch", nid=None, pgno=finding.pgno,
                    not_before=snapshot.created_at,
                    not_after=good[-1] if good else now,
                    detail="a transaction observed unexplained contents "
                           "on this page"))
        return forensic

    def _localise_completeness(self, forensic, finding, snapshot,
                               first_seen, on_disk, first_bad_read,
                               now) -> None:
        # versions that legally left the live set are not evidence
        legally_gone: Set[NormId] = set()
        for _, record in self._db.clog.records():
            if record.rtype in _NO_PROVENANCE:
                continue
            if record.rtype == CLogType.SHREDDED:
                legally_gone.add((record.relation_id, record.key, True,
                                  record.start))
            elif record.rtype == CLogType.MIGRATE and record.hist_ref \
                    and not record.key:
                from ..temporal.history import decode_hist_page
                try:
                    for version in decode_hist_page(
                            self._db.worm.read(record.hist_ref)):
                        legally_gone.add((version.relation_id,
                                          version.key, True,
                                          version.start))
                except Exception:
                    pass
        missing = [nid for nid in first_seen
                   if nid not in on_disk and nid not in legally_gone]
        extra = [nid for nid in on_disk if nid not in first_seen]
        for nid in missing:
            seen_at, pgno = first_seen[nid]
            not_after = first_bad_read.get(pgno, now)
            forensic.evidence.append(TamperEvidence(
                kind="missing", nid=nid, pgno=pgno, not_before=seen_at,
                detail="version present at not_before, gone by not_after",
                not_after=not_after))
        for nid in extra:
            forensic.evidence.append(TamperEvidence(
                kind="extra", nid=nid, pgno=on_disk[nid],
                not_before=snapshot.created_at, not_after=now,
                detail="version on disk that no snapshot or log record "
                       "accounts for (post-hoc insertion)"))
