"""The transaction log (WAL) with its WORM-mirrored tail.

The log lives on ordinary read/write media, but the paper requires its tail
(the last two regret intervals, and the tail active at any crash) to be on
WORM until the next audit, so that an adversary cannot rewrite transaction
outcomes before recovery runs.  This implementation mirrors a **projection
of every flushed record** to an append-only WORM *epoch* file: the
transaction outcomes and participation, and the (relation, key) identity
of each INSERT (:func:`~repro.wal.records.mirror_frame`).  Tuple payloads
are left out: they are on WORM already, in the compliance log's NEW_TUPLE
records under ADD-HASH, and the auditor's mirror cross-check never reads
them.  CHECKPOINT, TIME_SPLIT and PHYS_DELETE project to nothing, so a
flush of only those costs no WORM round-trip.  The epoch is rotated
(sealed and replaced) at each audit, after which the old epoch becomes
deletable once its retention lapses.  Mirroring the whole epoch rather
than a sliding two-interval window is strictly stronger and much simpler;
the paper's space argument is unaffected because epochs die at audits.

The mirror rides the compliance barriers.  A flush normally sends its
mirror copy to the box as a round-trip of its own, but the two flushes
that are always followed by a compliance barrier inside the same
operation — commit/abort (the outcome listeners' barrier) and page
write-back (the pwrite barrier) — pass ``defer_mirror=True`` and leave
the copy in the WORM group-commit buffer, where that barrier's single
round-trip carries it together with L and the stamp index.

The r/w file holds only what follows the last *quiesced* checkpoint.
:meth:`Engine.checkpoint <repro.temporal.engine.Engine.checkpoint>`
drops it (:meth:`TransactionLog.truncate`) once every committed write is
stamped, every dirty page is on disk, no transaction is active or
prepared, the manager is not halted and the mirror is synced, so crash
recovery replays only the work after that checkpoint.  The WORM mirror
keeps the whole epoch.  At every operation boundary the mirror
therefore equals the projection of every record flushed in the epoch,
and the durable WAL's projection is its suffix; the auditor's mirror
cross-check reads only the mirror.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator, List, Optional

from ..common.errors import WalError
from ..obs import Observability
from ..worm import WormServer
from .records import WalRecord, mirror_frame


class TransactionLog:
    """Append/flush/replay interface over the WAL file."""

    def __init__(self, path: "os.PathLike[str]", sync_writes: bool = False,
                 obs: Optional[Observability] = None):
        self.path = Path(path)
        self._sync = sync_writes
        self.obs = obs if obs is not None else Observability()
        registry = self.obs.registry
        self._c_flushes = registry.counter(
            "wal_flushes_total",
            help="WAL flushes that wrote records to the log file")
        self._c_bytes = registry.counter(
            "wal_bytes_written_total",
            help="bytes appended to the r/w WAL file (the file itself "
                 "shrinks at quiesced checkpoints)")
        self._c_scanned = registry.counter(
            "recovery_wal_bytes_scanned_total",
            help="WAL bytes read back by recovery's replay")
        self._c_deferred = registry.counter(
            "wal_mirror_deferred_total",
            help="WAL flushes whose WORM-mirror copy rode a compliance "
                 "barrier instead of its own round-trip")
        self._file = open(self.path, "ab")
        self._buffer: List[bytes] = []
        #: mirror projections of the buffered records (mirroring only)
        self._mirror_buffer: List[bytes] = []
        self._next_lsn = self._scan_existing() + 1
        self._flushed_lsn = self._next_lsn - 1
        self._worm: Optional[WormServer] = None
        self._worm_name: Optional[str] = None

    # -- WORM mirroring -----------------------------------------------------------

    def set_worm_mirror(self, worm: WormServer, name: str,
                        retention: Optional[int] = None) -> None:
        """Start mirroring flushed WAL records' projections to a WORM
        append file."""
        if self._buffer:
            raise WalError("cannot start mirroring with buffered records")
        if not worm.exists(name):
            worm.create_append_file(name, retention=retention)
        self._worm = worm
        self._worm_name = name

    @property
    def worm_mirror_name(self) -> Optional[str]:
        """Current WORM epoch file name (None when not mirroring)."""
        return self._worm_name

    # -- append / flush --------------------------------------------------------------

    def append(self, record: WalRecord) -> int:
        """Assign an LSN and buffer the record; returns the LSN.

        Buffered records are *not* durable until :meth:`flush` — a crash
        loses them, which is what the recovery tests exercise.
        """
        record.lsn = self._next_lsn
        self._next_lsn += 1
        self._buffer.append(record.to_bytes())
        if self._worm is not None:
            self._mirror_buffer.append(mirror_frame(record))
        return record.lsn

    def flush(self, defer_mirror: bool = False) -> int:
        """Write all buffered records to the log file and their
        projections to the WORM mirror.

        With ``defer_mirror=True`` the mirror copy only joins the WORM
        group-commit buffer; the caller must reach a compliance barrier
        or :meth:`sync_mirror` before its operation returns (module
        docstring).
        """
        if self._buffer:
            blob = b"".join(self._buffer)
            self._buffer.clear()
            self._file.write(blob)
            self._file.flush()
            if self._sync:
                os.fsync(self._file.fileno())
            self._c_flushes.inc()
            self._c_bytes.inc(len(blob))
            if self._worm is not None and self._worm_name is not None:
                mirror = b"".join(self._mirror_buffer)
                self._mirror_buffer.clear()
                # a durable flush also drains earlier deferred bytes,
                # in WAL order, whether or not it projects to any
                if mirror:
                    self._worm.append(self._worm_name, mirror,
                                      durable=not defer_mirror)
                    if defer_mirror:
                        self._c_deferred.inc()
                elif not defer_mirror:
                    self._worm.sync(self._worm_name)
        self._flushed_lsn = self._next_lsn - 1
        return self._flushed_lsn

    @property
    def mirror_pending(self) -> bool:
        """Whether deferred mirror bytes are waiting for a barrier."""
        worm, name = self._worm, self._worm_name
        return worm is not None and name is not None and \
            worm.buffered(name) > 0

    def sync_mirror(self) -> None:
        """Make deferred mirror bytes durable (free when a compliance
        barrier already carried them)."""
        if self._worm is not None and self._worm_name is not None:
            self._worm.sync(self._worm_name)

    def flush_to(self, lsn: int) -> None:
        """Ensure records up to ``lsn`` are durable (WAL-before-data)."""
        if lsn > self._flushed_lsn:
            self.flush()

    @property
    def flushed_lsn(self) -> int:
        """LSN of the last durable record."""
        return self._flushed_lsn

    @property
    def next_lsn(self) -> int:
        """LSN the next appended record will receive."""
        return self._next_lsn

    # -- crash / replay ------------------------------------------------------------

    def drop_buffer(self) -> None:
        """Discard unflushed records — part of the crash primitive."""
        self._buffer.clear()
        self._mirror_buffer.clear()

    def reopen(self) -> None:
        """Re-open the file handle after a simulated crash."""
        if self._file.closed:
            self._file = open(self.path, "ab")
        self._next_lsn = self._scan_existing() + 1
        self._flushed_lsn = self._next_lsn - 1

    def iter_records(self) -> Iterator[WalRecord]:
        """Replay every durable record in LSN order.

        A torn final frame (crash mid-write) ends the iteration silently,
        like real recovery treating the tail as never-written.
        """
        data = self.path.read_bytes()
        self._c_scanned.inc(len(data))
        offset = 0
        while offset < len(data):
            try:
                record, offset = WalRecord.from_bytes(data, offset)
            except WalError:
                return  # torn tail
            yield record

    def truncate(self) -> None:
        """Discard the on-disk log (legal only at a quiesced checkpoint).

        Called by a checkpoint that found no transaction active or
        prepared and the manager not halted, after it stamped every
        committed write, wrote every dirty page and synced the mirror,
        and by epoch rotation before the new epoch's mirror starts.
        Nothing recovery could still need is lost: outcomes are on L,
        pages are on disk, and the WORM mirror retains the epoch's
        outcomes and insert identities for the auditor.  LSNs carry on
        from where the dropped log ended.
        """
        if self._buffer:
            raise WalError("cannot truncate with buffered records")
        self._file.close()
        self._file = open(self.path, "wb")
        self._file.flush()

    def close(self) -> None:
        """Close the underlying file handle."""
        if not self._file.closed:
            self._file.close()

    def _scan_existing(self) -> int:
        """Find the highest LSN already durable in the file."""
        last = 0
        if self.path.exists():
            data = self.path.read_bytes()
            offset = 0
            while offset < len(data):
                try:
                    record, offset = WalRecord.from_bytes(data, offset)
                except WalError:
                    break
                last = record.lsn
        return last
