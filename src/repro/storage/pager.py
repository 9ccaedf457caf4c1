"""Page-level file I/O with pread/pwrite interception hooks.

The paper's compliance functionality is "isolated in a plugin that is
invoked on each pread/pwrite request" of Berkeley DB.  :class:`Pager` is the
seam where that plugin attaches in this reproduction:

* ``read_page`` (pread) fires ``pread_hooks`` with the raw bytes read;
* ``write_page`` (pwrite) fires ``pwrite_hooks`` with the raw bytes about to
  be written — **before** they reach the disk file, matching the paper's
  requirement that "data page writes wait until their corresponding
  NEW_TUPLE and/or STAMP_TRANS records have reached the WORM server".

``read_raw`` / ``write_raw`` bypass the hooks.  ``read_raw`` is what the
plugin itself uses to fetch the old disk image of a page (the "additional
storage server I/O" of Section IV-A) and what the auditor uses to scan the
final state; ``write_raw`` is the adversary's *file editor* — it mutates the
database file without the DBMS noticing, which is exactly the attack surface
of the threat model.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from ..common.errors import PageNotFoundError, StorageError
from ..obs import Observability
from .page import META, Page

PreadHook = Callable[[int, bytes], None]
#: batch-aware pread hook: sees a whole prefetch group at once
PreadBatchHook = Callable[[List[Tuple[int, bytes]]], None]
PwriteHook = Callable[[int, bytes], None]
#: fired after the pwrite hooks but before the physical write — the seam
#: where the compliance plugin places its group-commit durability
#: barrier ("data page writes wait until their corresponding NEW_TUPLE
#: and/or STAMP_TRANS records have reached the WORM server")
PwriteBarrier = Callable[[int], None]


def _spin(delay: float) -> None:
    """Busy-wait for ``delay`` seconds.

    ``time.sleep`` has millisecond-scale jitter that would swamp the
    sub-millisecond I/O latencies being simulated; a calibrated spin is
    deterministic at the cost of CPU (acceptable for benchmarks).
    """
    deadline = time.perf_counter() + delay
    while time.perf_counter() < deadline:
        pass


class Pager:
    """Fixed-size-page file storage for one database."""

    def __init__(self, path: os.PathLike, page_size: int,
                 sync_writes: bool = False, io_delay: float = 0.0,
                 obs: Optional[Observability] = None):
        self.path = Path(path)
        self.page_size = page_size
        self._sync = sync_writes
        self.obs = obs if obs is not None else Observability()
        self._c_reads = self.obs.registry.counter(
            "pager_reads_total",
            help="raw page reads from the data file")
        self._c_writes = self.obs.registry.counter(
            "pager_writes_total",
            help="hooked page writes to the data file")
        #: simulated per-I/O latency (seconds).  The paper's evaluation ran
        #: against an NFS filer where one page I/O costs orders of
        #: magnitude more than hashing a page; a pure-Python engine loses
        #: that balance, so benchmarks reintroduce it here.  Zero (the
        #: default) disables the simulation.
        self.io_delay = io_delay
        self.pread_hooks: List[PreadHook] = []
        self.pread_batch_hooks: List[PreadBatchHook] = []
        self.pwrite_hooks: List[PwriteHook] = []
        self.pwrite_barriers: List[PwriteBarrier] = []
        existing = self.path.exists() and self.path.stat().st_size > 0
        self._file = open(self.path, "r+b" if existing else "w+b")
        if existing:
            size = self.path.stat().st_size
            if size % page_size:
                raise StorageError(
                    f"{self.path}: size {size} is not a multiple of the "
                    f"page size {page_size}")
            self._page_count = size // page_size
        else:
            self._page_count = 0
            meta = Page(0, META)
            meta.meta = {"page_size": page_size}
            self._append_raw(meta.to_bytes(page_size))

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Close the underlying file handle."""
        if not self._file.closed:
            self._file.close()

    @property
    def page_count(self) -> int:
        """Number of pages currently in the file."""
        return self._page_count

    # -- hooked I/O (the DBMS path) ---------------------------------------------

    def read_page(self, pgno: int) -> bytes:
        """pread: return a page's raw bytes, firing pread hooks."""
        raw = self.read_raw(pgno)
        for hook in self.pread_hooks:
            hook(pgno, raw)
        return raw

    def read_pages(self, pgnos: Sequence[int]) -> List[Tuple[int, bytes]]:
        """Batched pread: read several pages, firing hooks once per group.

        Each page is read with the same per-page ``io_delay`` charge and
        counters as :meth:`read_page`.  When a batch-aware hook is
        registered it sees the whole group in one call (and is expected
        to cover the per-page ``pread_hooks`` duties itself — the
        compliance plugin does); otherwise the plain per-page hooks fire
        in order, making the batch observably identical to a loop of
        ``read_page`` calls.
        """
        pairs = [(pgno, self.read_raw(pgno)) for pgno in pgnos]
        if self.pread_batch_hooks:
            for batch_hook in self.pread_batch_hooks:
                batch_hook(pairs)
        else:
            for pgno, raw in pairs:
                for hook in self.pread_hooks:
                    hook(pgno, raw)
        return pairs

    def emit_write_hooks(self, pgno: int, raw: bytes) -> None:
        """Fire the pwrite hooks for a page without writing it.

        Phase 1 of a batched write-back: the buffer cache emits the
        compliance records for *every* page in a flush batch first, so
        the batch's first pwrite barrier drains them all in one WORM
        round-trip (group commit across pages).
        """
        for hook in self.pwrite_hooks:
            hook(pgno, raw)

    def write_page(self, pgno: int, raw: bytes,
                   hooks_done: bool = False) -> None:
        """pwrite: fire pwrite hooks, then write the page to disk.

        Hook-before-write is the ordering guarantee the recovery protocol
        depends on: the compliance records for a page reach WORM before the
        page itself reaches the disk.  ``hooks_done=True`` skips the hooks
        (the caller already ran :meth:`emit_write_hooks` for a batch) but
        still runs the barriers, so no pending record can ride past its
        page's physical write.
        """
        if len(raw) != self.page_size:
            raise StorageError(
                f"page write of {len(raw)} bytes; expected {self.page_size}")
        self._check_pgno(pgno)
        if not hooks_done:
            for hook in self.pwrite_hooks:
                hook(pgno, raw)
        # durability barriers run after every hook has emitted its
        # records, so one flush covers all of them (group commit)
        for barrier in self.pwrite_barriers:
            barrier(pgno)
        if self.io_delay:
            _spin(self.io_delay)
        self._file.seek(pgno * self.page_size)
        self._file.write(raw)
        self._file.flush()
        if self._sync:
            os.fsync(self._file.fileno())
        self._c_writes.inc()

    # -- raw I/O (plugin, auditor, adversary) -------------------------------------

    def read_raw(self, pgno: int) -> bytes:
        """Read a page without firing hooks (plugin/auditor path)."""
        self._check_pgno(pgno)
        if self.io_delay:
            _spin(self.io_delay)
        self._file.seek(pgno * self.page_size)
        raw = self._file.read(self.page_size)
        if len(raw) != self.page_size:
            raise PageNotFoundError(f"short read of page {pgno}")
        self._c_reads.inc()
        return raw

    def write_raw(self, pgno: int, raw: bytes) -> None:
        """Write a page without firing hooks.

        This is the adversary's file editor: the compliance layer never sees
        these bytes go by.  (Also used internally to initialise fresh pages.)
        """
        if len(raw) != self.page_size:
            raise StorageError(
                f"page write of {len(raw)} bytes; expected {self.page_size}")
        self._check_pgno(pgno)
        self._file.seek(pgno * self.page_size)
        self._file.write(raw)
        self._file.flush()

    # -- allocation --------------------------------------------------------------

    def allocate(self) -> int:
        """Extend the file by one zeroed-then-FREE page; return its number."""
        pgno = self._page_count
        from .page import FREE  # local import avoids a cycle at module load
        blank = Page(pgno, FREE)
        self._append_raw(blank.to_bytes(self.page_size))
        return pgno

    def _append_raw(self, raw: bytes) -> None:
        self._file.seek(self._page_count * self.page_size)
        self._file.write(raw)
        self._file.flush()
        self._page_count += 1

    def _check_pgno(self, pgno: int) -> None:
        if not 0 <= pgno < self._page_count:
            raise PageNotFoundError(
                f"page {pgno} out of range (file has {self._page_count})")
