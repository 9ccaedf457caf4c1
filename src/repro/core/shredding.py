"""Auditable shredding of expired tuples (Section VIII).

The **Expiry relation** records a retention period per relation ("for
current regulations, it usually suffices to remember a single retention
period per relation, and we take that approach").  It is itself an
ordinary transaction-time relation, so retention-policy changes are
versioned and audited like any other data, and the auditor can ask "what
was the policy *when this tuple was shredded*?".

The **vacuum process** physically erases expired versions: it first
appends a timestamped SHREDDED record to the compliance log for every
victim ("the SHREDDED record must be sent to WORM before the tuple(s)
listed on it can be vacuumed"), then removes them from the live tree —
WAL-logged, so a crash mid-vacuum is finished by recovery ("the simplest
implementation is just to re-vacuum after recovery"; all tuples listed in
SHREDDED records must be gone before the next audit or the audit fails).

Expired tuples that migrated to WORM historical pages are *re-migrated*:
a replacement WORM page holding only the survivors is written and
documented with a MIGRATE record, the directory is repointed, and the old
WORM file lingers until its own retention lapses — "one cannot truly
delete a page on WORM until the file in which it resides has expired".

Eligibility: a version may be shredded once its commit time plus the
relation's retention has passed, **unless** it is the newest version of a
still-live tuple — active business records stay, history expires.  If the
tuple's life has ended (newest version is end-of-life), the whole expired
history including the end-of-life marker may go.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..common.codec import Field, FieldType, Schema
from ..common.errors import RelationNotFoundError, ShreddingError
from ..storage.record import TupleVersion
from ..temporal.history import HistPageRef, decode_hist_page, \
    encode_hist_page

EXPIRY_RELATION = "__expiry__"

EXPIRY_SCHEMA = Schema(EXPIRY_RELATION, [
    Field("relation", FieldType.STR),
    Field("retention", FieldType.INT),
], key_fields=["relation"])


@dataclass
class VacuumReport:
    """What one vacuum run shredded."""

    shredded_live: int = 0
    shredded_worm: int = 0
    pages_remigrated: int = 0
    relations: List[str] = field(default_factory=list)


class Shredder:
    """The vacuum/shredding process for one database."""

    def __init__(self, db):
        self._db = db
        registry = db.obs.registry
        self._c_runs = registry.counter(
            "vacuum_runs_total", help="vacuum (shredding) runs")
        self._c_live = registry.counter(
            "shredded_versions_total",
            help="tuple versions physically erased", where="live")
        self._c_worm = registry.counter(
            "shredded_versions_total",
            help="tuple versions physically erased", where="worm")
        self._c_remigrated = registry.counter(
            "worm_pages_remigrated_total",
            help="WORM historical pages rewritten minus expired tuples")

    # -- retention policy --------------------------------------------------------

    def set_retention(self, relation: str, period: int) -> None:
        """Set (or update) a relation's retention period."""
        if period <= 0:
            raise ShreddingError("retention period must be positive")
        engine = self._db.engine
        engine.relation(relation)  # must exist
        row = {"relation": relation, "retention": period}
        with engine.transaction() as txn:
            if engine.get(EXPIRY_RELATION, (relation,), txn=txn) is None:
                engine.insert(txn, EXPIRY_RELATION, row)
            else:
                engine.update(txn, EXPIRY_RELATION, row)

    def retention_of(self, relation: str,
                     at: Optional[int] = None) -> Optional[int]:
        """The retention period in force (optionally as of a past time)."""
        row = self._db.engine.get(EXPIRY_RELATION, (relation,), at=at)
        return row["retention"] if row else None

    # -- vacuuming ------------------------------------------------------------------

    def vacuum(self, now: Optional[int] = None) -> VacuumReport:
        """Shred every expired version, live and on WORM."""
        engine = self._db.engine
        now = now if now is not None else engine.clock.now()
        report = VacuumReport()
        with self._db.obs.tracer.span("vacuum") as span:
            engine.run_stamper()  # only stamped versions can be judged
            from .holds import HOLDS_RELATION
            for name in engine.relation_names():
                if name in (EXPIRY_RELATION, HOLDS_RELATION):
                    continue
                retention = self.retention_of(name)
                if retention is None:
                    continue
                live, (worm_count, pages) = self._vacuum_relation(
                    name, retention, now)
                if live or worm_count:
                    report.relations.append(name)
                report.shredded_live += live
                report.shredded_worm += worm_count
                report.pages_remigrated += pages
            span.set(live=report.shredded_live,
                     worm=report.shredded_worm)
        self._c_runs.inc()
        self._c_live.inc(report.shredded_live)
        self._c_worm.inc(report.shredded_worm)
        self._c_remigrated.inc(report.pages_remigrated)
        return report

    def _vacuum_relation(self, name: str, retention: int, now: int):
        engine = self._db.engine
        info = engine.relation(name)
        victims = self._expired_live_versions(info, retention, now)
        # Phase 1: SHREDDED records reach WORM first
        for version in victims:
            pgno = info.tree.page_of(version.key, version.start)
            self._log_shredded(version, pgno if pgno is not None else -1,
                               now)
        self._barrier()  # "sent to WORM before the tuple(s) … vacuumed"
        # Phase 2: physical erasure, WAL-logged
        for version in victims:
            engine.physically_delete(info.relation_id, version.key,
                                     version.start)
        worm_stats = self._vacuum_worm_pages(info, retention, now)
        return len(victims), worm_stats

    def _expired_live_versions(self, info, retention: int,
                               now: int) -> List[TupleVersion]:
        victims: List[TupleVersion] = []
        entries = info.tree.iter_entries()
        index = 0
        while index < len(entries):
            end = index
            while end < len(entries) and \
                    entries[end].key == entries[index].key:
                end += 1
            group = entries[index:end]
            index = end
            newest = group[-1]
            life_over = newest.eol and newest.stamped and \
                newest.start + retention <= now
            held = self._db.holds.is_held(info.name, group[0].key)
            for version in group:
                if not version.stamped:
                    continue
                if version.start + retention > now:
                    continue
                if version is newest and not life_over:
                    continue  # the active record stays
                if held:
                    continue  # litigation hold: subpoenaed evidence stays
                victims.append(version)
        return victims

    def _vacuum_worm_pages(self, info, retention: int,
                           now: int) -> Tuple[int, int]:
        engine = self._db.engine
        shredded = 0
        remigrated = 0
        for ref in engine.histdir.for_relation(info.relation_id):
            entries = decode_hist_page(engine.worm.read(ref.ref))
            holds = self._db.holds
            expired = [e for e in entries
                       if e.start + retention <= now and
                       not holds.is_held(info.name, e.key)]
            if not expired:
                continue
            survivors = [e for e in entries if e not in expired]
            for version in expired:
                self._log_shredded(version, -1, now)
            # the announcement must be durable before the directory is
            # repointed / the replacement page written
            self._barrier()
            shredded += len(expired)
            if survivors:
                # re-migration: replacement page documented like the
                # original migration
                new_ref = engine.histdir.next_ref(info.relation_id)
                engine.worm.create_file(
                    new_ref, encode_hist_page(survivors),
                    retention=engine.worm_retention)
                keys = [e.key for e in survivors]
                engine.histdir.replace(ref.ref, HistPageRef(
                    ref=new_ref, relation_id=info.relation_id,
                    leaf_pgno=ref.leaf_pgno, split_time=ref.split_time,
                    lo_key=min(keys).hex(), hi_key=max(keys).hex(),
                    count=len(survivors)))
                self._log_remigration(info.relation_id, ref, new_ref, now)
                remigrated += 1
            else:
                engine.histdir.replace(ref.ref, None)
                self._log_remigration(info.relation_id, ref, "", now)
            self._barrier()  # MIGRATE durable before the old ref can go
            # the old WORM file stays until its retention lapses; the
            # auditor follows the directory/MIGRATE chain, not the file
            if engine.worm.is_expired(ref.ref):
                engine.worm.delete(ref.ref)
        return shredded, remigrated

    def _log_shredded(self, version: TupleVersion, pgno: int,
                      now: int) -> None:
        plugin = self._db.plugin
        if plugin is not None:
            plugin.log_shredded(version, pgno, now)

    def _barrier(self) -> None:
        plugin = self._db.plugin
        if plugin is not None:
            plugin.barrier()

    def _log_remigration(self, relation_id: int, old_ref: HistPageRef,
                         new_ref: str, now: int) -> None:
        plugin = self._db.plugin
        if plugin is not None:
            plugin.log_migrate(relation_id, old_ref.leaf_pgno, new_ref,
                               old_ref.split_time, old_ref.ref, now)

    # -- crash completion ----------------------------------------------------------------

    def finish_pending(self) -> int:
        """After recovery: erase tuples with SHREDDED records still live.

        "After a crash, the compliance routines need to finish vacuuming
        any tuples that are listed in a SHREDDED record on L, but are
        still in the DB."
        """
        plugin = self._db.plugin
        if plugin is None:
            return 0
        engine = self._db.engine
        finished = 0
        # recovery's load of L collected every SHREDDED identity, and
        # recovery itself appends none
        for relation_id, key, start in plugin.shredded:
            try:
                tree = engine._tree_for_id(relation_id)
            except RelationNotFoundError:
                continue
            if tree.get_version(key, start) is not None:
                engine.physically_delete(relation_id, key, start)
                finished += 1
        return finished
