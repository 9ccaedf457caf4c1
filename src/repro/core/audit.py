"""The auditor (Sections IV–VI, VIII).

A single pass over the compliance log plus a single pass over the final
database state decides whether the database is compliant:

* **Tuple completeness** — ``Df = Ds ∪ L`` (minus legally shredded and
  WORM-migrated versions), checked with the incremental commutative
  ADD-HASH so neither the log nor the final state needs sorting.  (The
  sort-merge variant the paper describes first is also provided, for the
  audit-cost ablation benchmark.)
* **STAMP_TRANS discipline** — via the auxiliary index: at most one commit
  record per transaction, strictly increasing commit times, no transaction
  both committed and aborted.
* **Liveness** — commits, heartbeats, and witness-file create times must
  never leave a gap longer than the regret interval (with slack), except
  across an honestly declared crash (START_RECOVERY), whose downtime the
  auditor excuses exactly as the paper prescribes.
* **Structure** — every page parses, leaf entries are sorted with versions
  threaded in commit-time order, and every B+-tree's internal keys are
  consistent with its leaves (the Fig. 2 attacks).
* **Read verification** (hash-page-on-read) — the auditor replays every
  page's state from the snapshot forward through NEW_TUPLE / UNDO /
  PAGE_SPLIT / PAGE_RESET / MIGRATE records and checks each READ_HASH,
  closing the state-reversion attack.
* **Recovery consistency** — the WAL mirror on WORM must tell the same
  story as L: identical commit/abort outcomes and identical sets of
  committed (relation, key, commit time) insert identities.
  This is the paper's "verify that the sequence of NEW_TUPLE and
  STAMP_TRANS records appended to L during recovery is consistent with the
  transaction log", and it also catches post-hoc insertion of records.
* **Shredding legality** — every SHREDDED tuple existed, had expired under
  the Expiry policy in force at shred time, and is truly gone.

On success the auditor writes the next signed snapshot, seals the epoch's
log files, and rotates the database to the next epoch.

Both passes run as lists of independent tasks (:mod:`.audit_scan`): the
default plan is one page-range chunk and one log slice executed in this
process — the plain single pass — and ``workers >= 1`` only changes how
many tasks there are and where they run, never what they decide.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..common.config import ComplianceMode
from ..common.errors import (AuditError, ComplianceLogError,
                             SnapshotError, WormFileNotFoundError)
from ..crypto import AuditorKey
from ..storage.page import Page
from ..storage.record import TupleVersion
from ..temporal.catalog import CATALOG_RELATION_ID
from ..wal import WalRecordType, analyse, iter_mirror
from .audit_scan import (AuditContext, AuditReport, FinalState, Finding,
                         NormId, ScanState, bind_worker, final_chunk_task,
                         in_worker, log_slice_task, merge_final,
                         merge_log, tree_check_task)
from .records import CLogType
from .shredding import EXPIRY_RELATION
from .snapshot import Snapshot, load_snapshot, write_snapshot

#: pages per final-state chunk task of a partitioned (``workers >= 1``)
#: audit; the inline plan scans ``[1, page_count)`` as one chunk
CHUNK_PAGES = 512


class Auditor:
    """Runs compliance audits against a :class:`CompliantDB`.

    ``workers`` chooses how the two scans execute.  ``0`` (the default,
    or the database's ``audit_workers``) is the inline plan: one chunk,
    one log slice, run in this process with no pool.  ``workers >= 1``
    is the partitioned plan — ``CHUNK_PAGES``-page chunks, one log
    slice per worker — run in this process for ``1`` and on a fork pool
    of that many processes above.  ``chunk_pages`` / ``log_slices``
    override the plan's shape; the report's content is the same at
    every shape.  An audit keeps no state between runs: every verdict
    is assembled from the evidence read by that run.
    """

    #: liveness gaps up to slack × regret interval are tolerated
    GAP_SLACK = 2.0

    def __init__(self, db: Any, key: Optional[AuditorKey] = None, *,
                 workers: Optional[int] = None,
                 chunk_pages: Optional[int] = None,
                 log_slices: Optional[int] = None):
        self._db = db
        self._key = key if key is not None else db.auditor_key
        self._workers: int = workers if workers is not None \
            else db.config.compliance.audit_workers
        if self._workers < 0:
            raise AuditError("audit workers must be >= 0")
        if chunk_pages is not None and chunk_pages < 1:
            raise AuditError("audit chunk_pages must be >= 1")
        if log_slices is not None and log_slices < 1:
            raise AuditError("audit log_slices must be >= 1")
        self._chunk_pages = chunk_pages
        self._log_slices: int = log_slices or max(1, self._workers)
        registry = db.obs.registry
        self._c_pass = registry.counter(
            "audits_total", help="audit runs by outcome", outcome="pass")
        self._c_fail = registry.counter(
            "audits_total", help="audit runs by outcome", outcome="fail")
        self._g_workers = registry.gauge(
            "audit_workers", help="worker processes of the running "
            "audit")
        self._c_pages = registry.counter(
            "audit_pages_scanned_total",
            help="final-state pages scanned by audits")
        self._c_tasks = registry.counter(
            "audit_tasks_total", help="audit scan tasks executed")
        self._c_memo_hits = registry.counter(
            "audit_norm_memo_hits_total",
            help="READ-hash replay normalisations served from the "
            "per-version memo")
        self._pool: Optional[Any] = None

    def _end_phase(self, report: AuditReport, name: str,
                   started: float) -> None:
        """Record a phase's wall-clock cost (report + histogram).

        Wall-clock feeds *metrics only* — nothing on the audit decision
        path depends on it, so replay determinism is preserved.
        """
        elapsed = time.perf_counter() - started
        report.phase_seconds[name] = elapsed
        self._db.obs.registry.histogram(
            "audit_phase_seconds", help="audit wall-clock cost by phase",
            phase=name).observe(elapsed)

    # -- entry point --------------------------------------------------------------

    def audit(self, rotate: bool = True) -> AuditReport:
        """Run a full audit of the current epoch.

        With ``rotate=True`` (the default) a passing audit writes the next
        snapshot, seals the epoch, and advances the database to the next
        epoch — the paper's full audit protocol.  ``rotate=False`` is a
        dry run (an *unannounced spot audit*).
        """
        db = self._db
        if db.mode is ComplianceMode.REGULAR:
            raise AuditError("a REGULAR-mode database cannot be audited")
        db.prepare_for_audit()
        report = AuditReport(epoch=db.epoch)
        with db.obs.tracer.span("audit", epoch=db.epoch) as span:
            self._run_phases(report, rotate)
            span.set(ok=report.ok, findings=len(report.findings))
        report.finalize()
        (self._c_pass if report.ok else self._c_fail).inc()
        return report

    def _run_phases(self, report: AuditReport, rotate: bool) -> None:
        db = self._db
        tracer = db.obs.tracer
        report.workers = self._workers

        started = time.perf_counter()
        report.current_phase = "snapshot"
        with tracer.span("audit.snapshot"):
            try:
                snapshot = load_snapshot(db.worm, self._key, db.epoch)
            except (SnapshotError, WormFileNotFoundError) as exc:
                report.add("snapshot",
                           f"previous snapshot unusable: {exc}")
                self._end_phase(report, "snapshot", started)
                return
            report.snapshot_tuples = snapshot.tuple_count
        self._end_phase(report, "snapshot", started)

        ctx = AuditContext(db, snapshot)
        try:
            self._open_tasks(ctx)

            started = time.perf_counter()
            report.current_phase = "log"
            with tracer.span("audit.log"):
                scan = self._scan_log(ctx, report)
            self._end_phase(report, "log", started)

            started = time.perf_counter()
            report.current_phase = "final"
            with tracer.span("audit.final"):
                final = self._scan_final_state(ctx, report)
            self._end_phase(report, "final", started)
        finally:
            self._close_tasks()

        started = time.perf_counter()
        report.current_phase = "checks"
        with tracer.span("audit.checks"):
            self._check_completeness(snapshot, scan, final, report)
            self._check_shredding(scan, final, report)
            self._check_wal_mirror(scan, report)
            self._check_liveness(snapshot, scan, report)
            self._check_directory(scan, report)
        self._end_phase(report, "checks", started)

        if report.ok and rotate:
            started = time.perf_counter()
            report.current_phase = "rotate"
            with tracer.span("audit.rotate"):
                write_snapshot(
                    db.worm, self._key, db.engine, epoch=db.epoch + 1,
                    retention=db.config.compliance.worm_retention)
                report.new_epoch = db.rotate_epoch()
            self._end_phase(report, "rotate", started)

    # -- task execution ------------------------------------------------------

    def _open_tasks(self, ctx: AuditContext) -> None:
        """Fork this audit's pool (``workers > 1``); the children
        inherit ``ctx`` — database and snapshot."""
        self._g_workers.set(self._workers)
        if self._workers > 1:
            self._pool = multiprocessing.get_context("fork").Pool(
                self._workers, initializer=bind_worker, initargs=(ctx,))

    def _close_tasks(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
        self._g_workers.set(0)

    def _run_tasks(self, ctx: AuditContext, report: AuditReport,
                   fn: Callable[..., Any],
                   tasks: List[Tuple[Any, ...]]) -> List[Any]:
        """Run ``fn`` over each task's args — in this process, or
        through the pool when there is one; returns results in task
        order."""
        pool = self._pool
        if pool is None:
            results = [fn(ctx, *args) for args in tasks]
        else:
            handles = [pool.apply_async(in_worker, (fn, args))
                       for args in tasks]
            results = [handle.get() for handle in handles]
        self._c_tasks.inc(len(tasks))
        report.tasks_total += len(tasks)
        return results

    # -- the two scans: build task list, run, merge --------------------------

    def _scan_log(self, ctx: AuditContext,
                  report: AuditReport) -> ScanState:
        db = self._db
        slices = self._log_slices
        tasks = [(index, slices) for index in range(slices)]
        with db.obs.tracer.span("audit.log.slices", slices=slices):
            results = self._run_tasks(ctx, report, log_slice_task, tasks)
        scan = merge_log(results, report)
        self._c_memo_hits.inc(sum(res.norm_memo_hits for res in results))
        try:
            scan.aux_entries = db.clog.aux_entries()
        except ComplianceLogError as exc:
            report.add("aux-log", f"stamp index unreadable: {exc}")
        return scan

    def _scan_final_state(self, ctx: AuditContext,
                          report: AuditReport) -> FinalState:
        db = self._db
        pager = db.engine.pager
        page_count: int = pager.page_count
        # pages per chunk: all of them for the inline plan
        step = self._chunk_pages or (
            CHUNK_PAGES if self._workers else max(1, page_count))
        tasks = [(lo, min(lo + step, page_count))
                 for lo in range(1, page_count, step)]
        with db.obs.tracer.span("audit.final.chunks", chunks=len(tasks)):
            final = merge_final(
                self._run_tasks(ctx, report, final_chunk_task, tasks),
                report)
        self._c_pages.inc(report.pages_scanned)

        # index consistency of every tree ever recorded in the catalog
        meta = Page.from_bytes(pager.read_raw(0))
        roots = dict(final.roots)
        roots[CATALOG_RELATION_ID] = meta.meta["catalog_root"]
        tree_tasks = sorted(roots.items())
        with db.obs.tracer.span("audit.final.trees",
                                trees=len(tree_tasks)):
            for findings in self._run_tasks(ctx, report, tree_check_task,
                                            tree_tasks):
                report.extend(findings)
        # the tree walks were the decoded pages' last readers
        ctx.pages.clear()
        return final

    def verify_tuple(self, relation: str, key: Tuple) -> List[Finding]:
        """Targeted spot check of one tuple's version history.

        The lightweight "unannounced audit" primitive: verify that every
        on-disk version of (relation, key) is accounted for by the current
        snapshot or a committed NEW_TUPLE record, without a full audit.
        Returns the findings (empty = consistent).  Note this is strictly
        weaker than :meth:`audit` — it cannot see *missing* versions the
        log knows nothing about being absent elsewhere.
        """
        from ..common.codec import encode_key
        db = self._db
        if db.mode is ComplianceMode.REGULAR:
            raise AuditError("a REGULAR-mode database cannot be audited")
        db.prepare_for_audit()
        findings: List[Finding] = []
        snapshot = load_snapshot(db.worm, self._key, db.epoch)
        key_bytes = encode_key(key)
        accounted: Dict[Tuple[bytes, int], bytes] = {}
        for version in snapshot.all_tuples():
            if version.key == key_bytes:
                accounted[(version.key, version.start)] = \
                    version.to_bytes()
        commit_map: Dict[int, int] = {}
        pending: List[TupleVersion] = []
        for _, record in db.clog.records():
            if record.rtype == CLogType.STAMP_TRANS and \
                    not record.heartbeat:
                commit_map[record.txn_id] = record.commit_time
            elif record.rtype == CLogType.NEW_TUPLE:
                version = TupleVersion.from_bytes(record.tuple_bytes)[0]
                if version.key == key_bytes:
                    pending.append(version)
        for version in pending:
            if not version.stamped:
                commit_time = commit_map.get(version.start)
                if commit_time is None:
                    continue
                version = version.stamp(commit_time)
            accounted[(version.key, version.start)] = version.to_bytes()
        info = db.engine.relation(relation)
        for view in db.engine.versions(relation, key,
                                       include_history=False):
            raw = view.raw
            if not raw.stamped:
                continue
            known = accounted.get((raw.key, raw.start))
            if known is None:
                findings.append(Finding(
                    "spot-unaccounted",
                    f"{relation}{key!r} version @{raw.start} has no "
                    "snapshot or log provenance"))
            elif known != raw.to_bytes():
                findings.append(Finding(
                    "spot-altered",
                    f"{relation}{key!r} version @{raw.start} differs "
                    "from its logged content"))
        return findings


    # -- completeness -------------------------------------------------------------------

    def _check_completeness(self, snapshot: Snapshot, scan: ScanState,
                            final: FinalState,
                            report: AuditReport) -> None:
        expected: Dict[NormId, bytes] = {}
        for version in snapshot.all_tuples():
            expected[(version.relation_id, version.key, True,
                      version.start)] = version.to_bytes()

        for version in scan.new_tuples:
            if version.stamped:
                nid = (version.relation_id, version.key, True,
                       version.start)
                expected[nid] = version.to_bytes()
                continue
            commit_time = scan.commit_map.get(version.start)
            if commit_time is not None:
                stamped = version.stamp(commit_time)
                expected[(stamped.relation_id, stamped.key, True,
                          stamped.start)] = stamped.to_bytes()
            elif version.start not in scan.aborted:
                report.add("tuple-of-unresolved-txn",
                           f"NEW_TUPLE for txn {version.start} with "
                           "neither STAMP_TRANS nor ABORT")
        report.new_tuples = len(scan.new_tuples)

        for nid in scan.migrated_ids:
            if expected.pop(nid, None) is None:
                report.add("migrated-unknown-tuple",
                           f"MIGRATE moved a version never seen live: "
                           f"{nid!r}")
        for nid, tuple_bytes, _, _ in scan.shredded:
            known = expected.pop(nid, None)
            if known is None:
                if nid not in scan.migrated_ids:
                    report.add("shredded-unknown-tuple",
                               f"SHREDDED names an unknown version "
                               f"{nid!r}")
            elif known != tuple_bytes:
                report.add("shredded-content-mismatch",
                           f"SHREDDED content differs for {nid!r}")

        # both folds go through the engine's batched ADD-HASH path;
        # ADD-HASH is commutative, so dict-iteration order cannot
        # change the digest
        digests = self._db.engine.digest_pool
        expected_hash = digests.add_hash_many(expected.values())
        if final.add_hash is not None:
            # the union of the per-chunk partial hashes, sound because
            # ADD-HASH is commutative
            final_hash = final.add_hash
        else:
            final_hash = digests.add_hash_many(final.tuples.values())
        report.expected_digest = expected_hash.hexdigest()
        report.final_digest = final_hash.hexdigest()
        if expected_hash != final_hash:
            missing = [nid for nid in expected if nid not in final.tuples]
            extra = [nid for nid in final.tuples if nid not in expected]
            changed = [nid for nid in expected
                       if nid in final.tuples and
                       expected[nid] != final.tuples[nid]]
            report.add(
                "completeness",
                f"Df != Ds ∪ L: {len(missing)} missing, {len(extra)} "
                f"extra, {len(changed)} altered version(s); e.g. "
                f"missing={missing[:3]!r} extra={extra[:3]!r} "
                f"altered={changed[:3]!r}")

    # -- shredding legality -----------------------------------------------------------------

    def _check_shredding(self, scan: ScanState, final: FinalState,
                         report: AuditReport) -> None:
        if not scan.shredded:
            return
        expiry_rel = final.root_by_name.get(EXPIRY_RELATION)
        # reconstruct the Expiry relation's history from the final state
        policies: Dict[str, List[Tuple[int, int]]] = {}
        if expiry_rel is not None:
            from .shredding import EXPIRY_SCHEMA
            live = [version for nid, raw in final.tuples.items()
                    if nid[0] == expiry_rel
                    and not (version := TupleVersion.from_bytes(raw)[0]).eol]
            rows = EXPIRY_SCHEMA.decode_batch(
                [version.payload for version in live])
            for version, row in zip(live, rows):
                policies.setdefault(row["relation"], []).append(
                    (version.start, row["retention"]))
        for history in policies.values():
            history.sort()

        # litigation holds, reconstructed from the audited final state:
        # the latest version of each hold as of the shred time governs
        from .holds import HOLDS_RELATION, holds_history_from_final_state
        holds_rel = final.root_by_name.get(HOLDS_RELATION)
        hold_versions = (holds_history_from_final_state(
            final.tuples, holds_rel) if holds_rel is not None else [])
        by_hold: Dict[int, List] = {}
        for start, hold in hold_versions:
            by_hold.setdefault(hold.hold_id, []).append((start, hold))
        for versions in by_hold.values():
            versions.sort(key=lambda pair: pair[0])

        def held_at(name: str, key: bytes, when: int) -> bool:
            for versions in by_hold.values():
                current = None
                for start, hold in versions:
                    if start <= when:
                        current = hold
                if current is not None and current.covers(name, key, when):
                    return True
            return False

        for nid, _, timestamp, record in scan.shredded:
            if nid in final.tuples:
                report.add("shredded-still-present",
                           f"SHREDDED version {nid!r} is still in the "
                           "database — vacuum incomplete")
            name = final.names.get(record.relation_id)
            if name is not None and held_at(name, record.key, timestamp):
                report.add("shred-under-hold",
                           f"a litigation hold covered this {name} tuple "
                           "at shred time — subpoenaed evidence was "
                           "destroyed")
                continue
            history = policies.get(name or "", [])
            retention = None
            for start, value in history:
                if start <= timestamp:
                    retention = value
            if retention is None:
                report.add("shred-without-policy",
                           f"no Expiry policy covered relation "
                           f"{name!r} at shred time")
                continue
            if record.start + retention > timestamp:
                report.add("premature-shred",
                           f"version committed at {record.start} shredded "
                           f"at {timestamp}, before retention "
                           f"{retention} elapsed")
            else:
                report.shredded_verified += 1

    # -- WAL mirror cross-check ---------------------------------------------------------------

    def _check_wal_mirror(self, scan: ScanState,
                          report: AuditReport) -> None:
        from .database import wal_mirror_name
        name = wal_mirror_name(self._db.epoch)
        if not self._db.worm.exists(name):
            report.add("wal-mirror-missing",
                       "no transaction-log tail on WORM for this epoch")
            return
        plan = analyse(iter_mirror(self._db.worm.read(name)))

        if plan.committed != scan.commit_map:
            only_l = set(scan.commit_map) - set(plan.committed)
            only_wal = set(plan.committed) - set(scan.commit_map)
            drift = {txn for txn in set(scan.commit_map) &
                     set(plan.committed)
                     if scan.commit_map[txn] != plan.committed[txn]}
            report.add("recovery-inconsistent",
                       "L and the WORM transaction-log tail disagree on "
                       f"commits: stamped-not-committed={sorted(only_l)}, "
                       f"committed-not-stamped={sorted(only_wal)}, "
                       f"time-drift={sorted(drift)}")
        wal_aborted = plan.aborted | plan.losers
        if wal_aborted != scan.aborted:
            report.add("recovery-inconsistent",
                       "L and the WORM transaction-log tail disagree on "
                       f"aborts: {sorted(wal_aborted ^ scan.aborted)}")

        wal_ids: Set[NormId] = set()
        for record in plan.records:
            if record.rtype != WalRecordType.INSERT:
                continue
            commit_time = plan.committed.get(record.txn_id)
            if commit_time is None:
                continue
            wal_ids.add((record.relation_id, record.key, True,
                         commit_time))
        l_ids: Set[NormId] = set()
        for version in scan.new_tuples:
            if version.stamped:
                l_ids.add((version.relation_id, version.key, True,
                           version.start))
            else:
                commit_time = scan.commit_map.get(version.start)
                if commit_time is not None:
                    l_ids.add((version.relation_id, version.key, True,
                               commit_time))
        if wal_ids != l_ids:
            report.add("log-wal-divergence",
                       f"{len(l_ids - wal_ids)} tuple(s) on L without a "
                       f"WAL insert, {len(wal_ids - l_ids)} WAL insert(s) "
                       "never logged to L")

    # -- liveness ------------------------------------------------------------------------------

    def _check_liveness(self, snapshot: Snapshot, scan: ScanState,
                        report: AuditReport) -> None:
        regret = self._db.config.compliance.regret_interval
        events: List[Tuple[int, str]] = [(snapshot.created_at, "start")]
        events.extend((t, "stamp") for t in scan.stamp_times)
        events.extend((t, "recovery") for t in scan.recovery_times)
        prefix = f"witness/epoch-{self._db.epoch:06d}-"
        for name in self._db.worm.list_files(prefix):
            events.append((self._db.worm.meta(name).create_time,
                           "witness"))
        events.append((self._db.clock.now(), "audit"))
        by_time: Dict[int, Set[str]] = {}
        for when, kind in events:
            by_time.setdefault(when, set()).add(kind)
        times = sorted(by_time)
        threshold = int(regret * self.GAP_SLACK)
        for prev_time, cur_time in zip(times, times[1:]):
            gap = cur_time - prev_time
            if gap > threshold and "recovery" not in by_time[cur_time]:
                report.add("liveness-gap",
                           f"{gap} µs of silence ending at {cur_time} "
                           "with no witness, heartbeat, or declared "
                           "recovery — a crash may have been hidden")

        # strict STAMP_TRANS discipline from the auxiliary index
        last_time = None
        seen: Dict[int, int] = {}
        for entry in scan.aux_entries:
            if last_time is not None and entry.commit_time < last_time:
                report.add("stamp-order",
                           f"commit time {entry.commit_time} after "
                           f"{last_time} in the aux index")
            last_time = max(last_time or 0, entry.commit_time)
            if entry.heartbeat:
                continue
            if entry.txn_id in seen and \
                    seen[entry.txn_id] != entry.commit_time:
                report.add("stamp-duplicate",
                           f"two different commit times for txn "
                           f"{entry.txn_id}")
            seen[entry.txn_id] = entry.commit_time

    # -- historical directory ------------------------------------------------------------------

    def _check_directory(self, scan: ScanState,
                         report: AuditReport) -> None:
        engine = self._db.engine
        for entry in engine.histdir.all_entries():
            if not self._db.worm.exists(entry.ref):
                report.add("directory-dangling",
                           f"historical directory points at missing WORM "
                           f"file {entry.ref}")
                continue
            if entry.ref not in scan.migrate_refs:
                report.add("directory-unlogged",
                           f"historical page {entry.ref} has no MIGRATE "
                           "record on L")
            else:
                report.migrations_verified += 1



# --------------------------------------------------------------------------
# The paper's baseline completeness check (for the audit-cost ablation)
# --------------------------------------------------------------------------


def sorted_completeness_check(snapshot_tuples: List[bytes],
                              log_tuples: List[bytes],
                              final_tuples: List[bytes]) -> bool:
    """The sort-merge tuple completeness check of Section IV-A.

    O(|L| log |L|) sort of the log, then a merge against the snapshot and a
    comparison with the final state — the approach ADD-HASH renders
    unnecessary.  Exists so the audit-time benchmark can compare the two.
    """
    merged = sorted(log_tuples)
    combined = sorted(snapshot_tuples + merged)
    return combined == sorted(final_tuples)
