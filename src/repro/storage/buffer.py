"""Buffer cache: recency-ordered page caching with steal and atomic groups.

The cache parses pages on miss (pread) and serialises them on flush
(pwrite); both directions run through the :class:`~repro.storage.pager.Pager`
hooks that the compliance plugin taps, so under HASH_ON_READ every miss
costs a decode, a page hash and a READ_HASH record.

Eviction policy.  Pages sit in least-recently-used order (a hit moves the
page to the young end).  The victim is the first clean, unpinned page
among the ``capacity // 4`` oldest pages — the *recency window*.  Only
when that window holds no clean page does the cache steal: it writes back
the oldest dirty unpinned pages, with their whole split groups, until at
least ``capacity // 8`` pages are in the batch, as ONE call to
``_flush_batch`` (one WAL-first pass, one compliance-log barrier), and
then evicts the now-clean oldest page.  A clean page thus normally leaves
only once it has aged into the window, so hot, mostly-clean internal
B-tree pages stay resident while cold dirty leaves are written back in
batches.

Three behaviours matter to the paper's protocol:

* **steal** — dirty pages of uncommitted transactions may reach disk, both
  through eviction and through the regret-interval checkpoint ("calling
  db_checkpoint once every regret interval", Section VII), which flushes
  *all* dirty pages.  The compliance log can thus contain NEW_TUPLE
  records for transactions that later abort; the ABORT/UNDO machinery
  exists precisely for this.
* **pins** — a pinned page, or any page whose split group has a pinned
  member, is never a victim; the cache may overflow capacity while an
  operation holds pins, and :meth:`BufferCache.maybe_evict` restores the
  bound afterwards.
* **atomic structure groups** — a B+-tree split dirties several pages
  (leaf, new sibling, parent).  Flushing some but not all of them across a
  crash would physically corrupt the tree, which real engines prevent with
  physiological redo.  This reproduction instead flushes *split groups
  atomically*: the tree registers the set of pages a split touched, and
  flushing any member flushes them all, WAL-first.  See DESIGN.md §6.

``buffer_writeback_batches_total{reason=evict|checkpoint}`` counts the
write-back batches by cause: ``evict`` for steals, ``checkpoint`` for
``flush_all`` and explicit ``flush_page`` calls.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Callable, Dict, Iterable, List, Optional, Set

from ..common.errors import BufferError_, PageNotFoundError
from ..obs import Observability
from .page import FREE, Page
from .pager import Pager

BeforeFlushHook = Callable[[Page], None]

#: bucket bounds for pages-per-flush-batch (group-commit batch sizes)
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class BufferCache:
    """LRU cache of parsed pages over a :class:`Pager`."""

    def __init__(self, pager: Pager, capacity_pages: int,
                 obs: Optional[Observability] = None):
        self._pager = pager
        self._capacity = capacity_pages
        #: defaults to the pager's bundle so a standalone cache+pager
        #: pair shares one registry
        self.obs = obs if obs is not None else pager.obs
        registry = self.obs.registry
        self._c_hits = registry.counter(
            "buffer_hits_total",
            help="page requests served from memory")
        self._c_misses = registry.counter(
            "buffer_misses_total",
            help="page requests that read from disk")
        self._c_flushes = registry.counter(
            "buffer_flushes_total", help="dirty pages written back")
        self._c_evictions = registry.counter(
            "buffer_evictions_total",
            help="pages evicted from the cache")
        self._h_batch = registry.histogram(
            "buffer_flush_batch_pages", buckets=_BATCH_BUCKETS,
            help="pages per atomic write-back batch")
        self._c_writeback = {
            reason: registry.counter(
                "buffer_writeback_batches_total",
                help="atomic write-back batches by cause", reason=reason)
            for reason in ("evict", "checkpoint")}
        #: minimum steal batch: once eviction has to write back dirty
        #: pages, it writes at least this many so one group-commit barrier
        #: covers a batch of write-backs instead of paying one WORM
        #: round-trip per evicted page
        self._steal_slack = max(1, capacity_pages // 8)
        #: recency window: the victim is the first clean page among this
        #: many least-recently-used pages, and eviction steals only when
        #: none is clean, so a recently used clean page outlives older
        #: dirty ones
        self._lru_window = max(1, capacity_pages // 4)
        self._pages: "OrderedDict[int, Page]" = OrderedDict()
        self._pins: Dict[int, int] = {}
        #: pgno -> group id; pages in one group flush together
        self._group_of: Dict[int, int] = {}
        self._groups: Dict[int, Set[int]] = {}
        self._next_group = 1
        #: invoked with a page right before it is serialised to disk;
        #: the engine flushes the WAL up to page.lsn here
        self.before_flush: Optional[BeforeFlushHook] = None

    # -- access ------------------------------------------------------------------

    def get(self, pgno: int) -> Page:
        """Fetch a page, reading and parsing it on a cache miss."""
        page = self._pages.get(pgno)
        if page is not None:
            self._pages.move_to_end(pgno)
            self._c_hits.inc()
            return page
        raw = self._pager.read_page(pgno)  # pread (hooks fire)
        page = Page.from_bytes(raw)
        if page.pgno != pgno:
            raise PageNotFoundError(
                f"page {pgno} on disk claims pgno {page.pgno}")
        self._c_misses.inc()
        # make room first: the page being added must not be the eviction
        # victim before the caller has had a chance to pin it
        self._evict_as_needed()
        self._pages[pgno] = page
        return page

    def prefetch(self, pgnos: Iterable[int]) -> int:
        """Warm the cache: read and parse absent pages as one batch.

        The whole group goes through :meth:`Pager.read_pages`, whose
        batch hook sees it in one call.  Returns the number of pages
        actually loaded.
        """
        missing = [pgno for pgno in dict.fromkeys(pgnos)
                   if pgno not in self._pages]
        if not missing:
            return 0
        pairs = self._pager.read_pages(missing)
        for pgno, raw in pairs:
            page = Page.from_bytes(raw)
            if page.pgno != pgno:
                raise PageNotFoundError(
                    f"page {pgno} on disk claims pgno {page.pgno}")
            self._c_misses.inc()
            self._evict_as_needed()
            self._pages[pgno] = page
        return len(pairs)

    def new_page(self, ptype: int, level: int = 0) -> Page:
        """Allocate a fresh page and cache it dirty."""
        pgno = self._pager.allocate()
        page = Page(pgno, ptype, level)
        page.dirty = True
        self._evict_as_needed()
        self._pages[pgno] = page
        return page

    def free_page(self, pgno: int) -> None:
        """Mark a page as FREE (vacated); it is rewritten on next flush."""
        page = self.get(pgno)
        page.ptype = FREE
        page.entries = []
        page.seps = []
        page.children = []
        page.hist_refs = []
        page.dirty = True

    # -- pinning -----------------------------------------------------------------

    def pin(self, pgno: int) -> None:
        """Prevent a page from being evicted while an operation holds it."""
        self._pins[pgno] = self._pins.get(pgno, 0) + 1

    def unpin(self, pgno: int) -> None:
        """Release one pin on a page."""
        count = self._pins.get(pgno, 0)
        if count <= 1:
            self._pins.pop(pgno, None)
        else:
            self._pins[pgno] = count - 1

    # -- dirtiness & groups --------------------------------------------------------

    def mark_dirty(self, page: Page) -> None:
        """Flag a cached page as modified."""
        page.dirty = True

    def note_group(self, pgnos: Iterable[int]) -> None:
        """Register pages that must flush atomically (a split's footprint).

        Overlapping groups merge, so chained splits (leaf → parent → root)
        form one group.
        """
        members = set(pgnos)
        gids = {self._group_of[p] for p in members if p in self._group_of}
        for gid in gids:
            members |= self._groups.pop(gid)
        gid = self._next_group
        self._next_group += 1
        self._groups[gid] = members
        for pgno in members:
            self._group_of[pgno] = gid

    # -- flushing ---------------------------------------------------------------

    def _pop_group(self, pgno: int) -> List[int]:
        """Detach and return a page's atomic-group members (or itself)."""
        gid = self._group_of.get(pgno)
        members = sorted(self._groups.pop(gid)) if gid is not None \
            else [pgno]
        for member in members:
            self._group_of.pop(member, None)
        return members

    def _flush_batch(self, pgnos: Iterable[int], reason: str) -> None:
        """Write a batch of pages with one group-commit barrier.

        Write-back ordering, batched: phase 1 makes the WAL durable up
        to every page's LSN (``before_flush`` → WAL-before-data) and
        fires the pwrite hooks, emitting the compliance records for the
        *whole* batch; phase 2 writes the page bytes, and the first
        page's pwrite barrier drains all the buffered records in a
        single WORM round-trip — strictly before any batched page
        reaches the disk file.
        """
        dirty = [(member, page) for member in pgnos
                 if (page := self._pages.get(member)) is not None
                 and page.dirty]
        if not dirty:
            return
        with self.obs.tracer.span("buffer.flush_batch",
                                  pages=len(dirty)):
            batch = []
            for member, page in dirty:
                if self.before_flush is not None:
                    self.before_flush(page)
                raw = page.to_bytes(self._pager.page_size)
                self._pager.emit_write_hooks(member, raw)
                batch.append((member, page, raw))
            for member, page, raw in batch:
                self._pager.write_page(member, raw, hooks_done=True)
                page.dirty = False
                self._c_flushes.inc()
        self._h_batch.observe(len(dirty))
        self._c_writeback[reason].inc()

    def flush_page(self, pgno: int) -> None:
        """Flush one page (and its whole atomic group) to disk."""
        self._flush_batch(self._pop_group(pgno), "checkpoint")

    def flush_all(self) -> int:
        """Checkpoint: flush every dirty page in one group-commit batch.

        Returns pages flushed.
        """
        dirty = [pgno for pgno, page in self._pages.items() if page.dirty]
        batch: List[int] = []
        seen: Set[int] = set()
        for pgno in dirty:
            for member in self._pop_group(pgno):
                if member not in seen:
                    seen.add(member)
                    batch.append(member)
        self._flush_batch(batch, "checkpoint")
        return len(dirty)

    def dirty_pgnos(self) -> List[int]:
        """Page numbers of currently dirty cached pages."""
        return [pgno for pgno, page in self._pages.items() if page.dirty]

    # -- crash simulation ----------------------------------------------------------

    def drop_all(self) -> None:
        """Discard the whole cache without flushing — the crash primitive.

        Everything not yet flushed is lost, exactly as if the DBMS process
        died; recovery must reconstruct from the WAL and the disk image.
        """
        self._pages.clear()
        self._pins.clear()
        self._groups.clear()
        self._group_of.clear()

    # -- eviction -----------------------------------------------------------------

    def maybe_evict(self) -> None:
        """Shrink back to capacity; called by the tree after each operation.

        Mid-operation evictions skip pinned pages and any atomic group with
        a pinned member, so the cache can temporarily exceed capacity while
        a split is in flight; this end-of-operation sweep (no pins held)
        restores the bound, flushing split groups atomically.
        """
        self._evict_as_needed()

    def _evict_as_needed(self) -> None:
        pages, pins = self._pages, self._pins
        while len(pages) > self._capacity:
            # the victim is the first clean unpinned page in the LRU window
            victim = next((pgno for pgno in islice(pages, self._lru_window)
                           if not pages[pgno].dirty and not pins.get(pgno)),
                          None)
            if victim is None:
                # steal: write back the oldest dirty unpinned pages, with
                # their split groups, as ONE group-commit batch.  A page
                # whose group has a pinned member is skipped: the group may
                # be mid-split and not yet serialisable.
                flushing: Set[int] = set()
                for pgno, page in pages.items():
                    if len(flushing) >= self._steal_slack:
                        break
                    if not page.dirty or pins.get(pgno) or pgno in flushing:
                        continue
                    gid = self._group_of.get(pgno)
                    if gid is not None and any(
                            pins.get(member) for member in self._groups[gid]):
                        continue
                    flushing.update(self._pop_group(pgno))
                self._flush_batch(sorted(flushing), "evict")
                victim = next((pgno for pgno, page in pages.items()
                               if not page.dirty and not pins.get(pgno)),
                              None)
            if victim is None:
                break
            del pages[victim]
            self._c_evictions.inc()
        # every remaining page pinned: allow temporary overflow rather than
        # failing the operation mid-flight
        if len(pages) > self._capacity * 4:
            raise BufferError_(
                "buffer cache wildly over capacity with all pages pinned")
