"""Mala's toolkit — the threat model of Section II, made executable.

"An attacker might have or assume the identity of any legitimate user or
superuser in the system … she may take over root on the platform where the
DBMS runs and issue any possible command to the WORM server in an attempt
to modify one or more historical versions of that tuple … Mala can target
any database file, including data, indexes, logs, and metadata."

Every method here edits the database's on-disk state *directly* — through
the raw (hook-free) pager interface, exactly like the paper's adversary
with a file editor — or appends records to WORM (which the adversary can
do: she holds the DBMS host's WORM credentials; what she cannot do is
rewrite or early-delete committed WORM bytes).

The test suite and the attack-gallery example pair each of these with the
audit that detects it.  Nothing in this module is useful outside the
simulation: it only works against this library's own page format.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..common.codec import encode_key
from ..common.errors import ReproError
from ..storage.page import INTERNAL, LEAF, Page
from ..storage.record import TupleVersion
from .records import CLogRecord, CLogType


class AttackFailed(ReproError):
    """The attack's precondition did not hold (nothing to tamper)."""


class Adversary:
    """A superuser editing the database files behind the DBMS's back."""

    def __init__(self, db):
        self._db = db
        self._engine = db.engine
        self._pager = db.engine.pager

    # -- plumbing -------------------------------------------------------------

    def settle(self) -> None:
        """Wait out the write-behind: flush everything, cold cache.

        Mala strikes *after* the regret interval — data is on disk and the
        DBMS can be restarted so its cache is cold.  (Buffer-cache attacks
        are excluded by the threat model.)
        """
        self._engine.checkpoint()
        self._engine.buffer.drop_all()

    def _read(self, pgno: int) -> Page:
        return Page.from_bytes(self._pager.read_raw(pgno))

    def _write(self, page: Page) -> None:
        self._pager.write_raw(page.pgno,  # repro-lint: disable=barrier-dominance -- Mala IS the adversary: tampering deliberately bypasses the compliance barrier
                              page.to_bytes(self._pager.page_size))

    def _leaf_pages(self):
        for pgno in range(1, self._pager.page_count):
            try:
                page = self._read(pgno)
            except ReproError:
                continue
            if page.ptype == LEAF:
                yield page

    def _locate(self, relation: str, key: Tuple[Any, ...]
                ) -> List[Tuple[Page, int]]:
        """(page, slot) of every on-disk version of a key, oldest first."""
        info = self._engine.relation(relation)
        key_bytes = encode_key(key)
        hits: List[Tuple[Page, int]] = []
        for page in self._leaf_pages():
            for slot, entry in enumerate(page.entries):
                if entry.relation_id == info.relation_id and \
                        entry.key == key_bytes:
                    hits.append((page, slot))
        if not hits:
            raise AttackFailed(
                f"no on-disk version of {relation}{key!r} to tamper")
        return hits

    # -- threat 1: retroactive shredding / alteration ---------------------------------

    def shred_tuple(self, relation: str, key: Tuple[Any, ...],
                    version_index: Optional[int] = None) -> int:
        """Erase committed version(s) of a tuple from the database file.

        The CEO's cover-up: make the record never have existed.  Removes
        all versions, or just the ``version_index``-th oldest.
        """
        hits = self._locate(relation, key)
        if version_index is not None:
            hits = [hits[version_index]]
        removed = 0
        # remove from the highest slot down so indices stay valid
        for page, slot in sorted(hits, key=lambda h: -h[1]):
            del page.entries[slot]
            self._write(page)
            removed += 1
        return removed

    def alter_tuple(self, relation: str, key: Tuple[Any, ...],
                    row: Dict[str, Any],
                    version_index: int = -1) -> None:
        """Rewrite a committed version's payload in place (same key, same
        commit time — the subtlest alteration)."""
        info = self._engine.relation(relation)
        page, slot = self._locate(relation, key)[version_index]
        old = page.entries[slot]
        page.entries[slot] = TupleVersion(
            relation_id=old.relation_id, key=old.key, start=old.start,
            stamped=old.stamped, eol=old.eol, seq=old.seq,
            payload=info.schema.encode_payload(row))
        self._write(page)

    # -- threat 2: post-hoc insertion --------------------------------------------------

    def backdate_insert(self, relation: str, row: Dict[str, Any],
                        start: int) -> None:
        """Plant a tuple with an already-passed commit time.

        The forged-government-record attack: make it appear an activity
        took place, at a chosen past time, though it never did.
        """
        from bisect import bisect_right
        info = self._engine.relation(relation)
        key_bytes = info.schema.encode_key_from_row(row)
        version = TupleVersion(
            relation_id=info.relation_id, key=key_bytes, start=start,
            stamped=True, eol=False, seq=0,
            payload=info.schema.encode_payload(row))
        # descend the relation's own tree on disk so the forgery lands
        # exactly where a lookup would expect it — the subtlest placement
        page = self._read(info.root_pgno)
        while page.ptype == INTERNAL:
            idx = bisect_right(page.seps, (key_bytes, start))
            page = self._read(page.children[idx])
        if not page.fits(self._pager.page_size,
                         extra=version.encoded_size()):
            raise AttackFailed("no room on the target page for the "
                               "forgery")
        page.entries.insert(page.find_slot(key_bytes, start), version)
        self._write(page)

    # -- Fig. 2 index attacks ------------------------------------------------------------

    def swap_leaf_entries(self, relation: str) -> int:
        """Fig. 2(b): swap two leaf elements so lookups miss them."""
        info = self._engine.relation(relation)
        for page in self._leaf_pages():
            ours = [i for i, e in enumerate(page.entries)
                    if e.relation_id == info.relation_id]
            if len(ours) >= 2:
                i, j = ours[0], ours[-1]
                page.entries[i], page.entries[j] = \
                    page.entries[j], page.entries[i]
                self._write(page)
                return page.pgno
        raise AttackFailed("no leaf with two entries to swap")

    def tamper_separator(self, relation: str) -> int:
        """Fig. 2(c): overwrite an internal-node key to hide a subtree."""
        info = self._engine.relation(relation)
        root = self._read(info.root_pgno)
        node = root
        while node.ptype == INTERNAL:
            if node.seps:
                key, start = node.seps[0]
                node.seps[0] = (key[:-1] + b"\xff" if key else b"\xff",
                                start)
                self._write(node)
                return node.pgno
            node = self._read(node.children[0])
        raise AttackFailed("tree has no internal node yet")

    # -- state reversion (Section V's motivating attack) -----------------------------------

    class _Reversion:
        def __init__(self, adversary: "Adversary", pgno: int,
                     original: bytes):
            self._adversary = adversary
            self.pgno = pgno
            self._original = original

        def revert(self) -> None:
            """Put the original bytes back before anyone audits."""
            self._adversary._pager.write_raw(self.pgno, self._original)  # repro-lint: disable=barrier-dominance -- state-reversion attack: unlogged restore is the point

    def begin_state_reversion(self, relation: str, key: Tuple[Any, ...],
                              row: Dict[str, Any]) -> "_Reversion":
        """Tamper a tuple now, planning to undo it before the next audit.

        Returns a handle whose ``revert()`` restores the original bytes —
        the attack the log-consistent architecture alone cannot see, and
        hash-page-on-read exists to catch.
        """
        page, slot = self._locate(relation, key)[-1]
        original = self._pager.read_raw(page.pgno)
        info = self._engine.relation(relation)
        old = page.entries[slot]
        page.entries[slot] = TupleVersion(
            relation_id=old.relation_id, key=old.key, start=old.start,
            stamped=old.stamped, eol=old.eol, seq=old.seq,
            payload=info.schema.encode_payload(row))
        self._write(page)
        return Adversary._Reversion(self, page.pgno, original)

    # -- log / recovery attacks -------------------------------------------------------------

    def append_spurious_abort(self, txn_id: int) -> None:
        """Append a fake ABORT to L to disown a committed transaction."""
        self._db.plugin.clog.append(CLogRecord(
            CLogType.ABORT, txn_id=txn_id,
            timestamp=self._db.clock.now()))

    def append_spurious_stamp(self, txn_id: int, commit_time: int) -> None:
        """Append a fake STAMP_TRANS to legitimise a forged transaction."""
        self._db.plugin.clog.append(CLogRecord(
            CLogType.STAMP_TRANS, txn_id=txn_id, commit_time=commit_time,
            timestamp=self._db.clock.now()))

    def append_spurious_shredded(self, relation: str,
                                 key: Tuple[Any, ...]) -> None:
        """Append a SHREDDED record for an unexpired tuple, then erase it —
        shredding-as-a-cover-up."""
        info = self._engine.relation(relation)
        page, slot = self._locate(relation, key)[-1]
        version = page.entries[slot]
        self._db.plugin.clog.append(CLogRecord(
            CLogType.SHREDDED, relation_id=info.relation_id,
            key=version.key, start=version.start, pgno=page.pgno,
            tuple_bytes=version.to_bytes(),
            timestamp=self._db.clock.now()))
        del page.entries[slot]
        self._write(page)

    def truncate_wal(self) -> None:
        """Destroy the on-disk transaction log before recovery runs.

        The WORM mirror of the tail is exactly the defence against this.
        """
        self._engine.wal.truncate()

    def crash_and_silent_recovery(self) -> None:
        """Crash the DBMS and recover *without* the compliance routines.

        No START_RECOVERY, no replayed outcomes, no PAGE_RESETs — the
        crash-hiding attack.  The liveness/witness checks and the WAL
        mirror cross-check are the countermeasures.
        """
        self._engine.crash()
        self._engine.recover()
