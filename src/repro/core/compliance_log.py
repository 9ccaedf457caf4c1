"""The compliance log ``L`` — an append-only file per audit epoch on WORM.

Lifecycle (Section IV): the log for the current epoch receives every
compliance record; at audit time "the current file for L is permanently
closed [sealed], a new one is opened".  Old epochs become deletable once
their retention lapses after the following audit.

Alongside each epoch's log lives the **auxiliary stamp index**: "the
compliance logger creates an auxiliary WORM log file listing the
transaction ID and location in L of each STAMP_TRANS record", which lets
the auditor build its txn→commit-time table without a preliminary scan of
the (much larger) main log.

Both files are group-committed: appends buffer in the WORM server and a
:meth:`ComplianceLog.barrier` drains the buffer in **one** round-trip to
the box.  The WAL mirror buffers into the same group at commit, abort
and page write-back (see :mod:`repro.wal.log`), so the barrier that
makes a STAMP_TRANS durable carries its stamp-index entry and the
transaction's mirrored COMMIT with it.

If the WORM server cannot be written, :class:`ComplianceHaltError` is
raised and transaction processing must halt — exactly the paper's rule.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

from ..common.errors import ComplianceHaltError, ComplianceLogError, \
    WormError
from ..worm import WormServer
from .records import AuxStampEntry, CLogRecord, CLogType, iter_aux

_LEN = struct.Struct("<I")
_STREAM_CHUNK = 256 * 1024


def log_name(epoch: int) -> str:
    """WORM file name of an epoch's compliance log."""
    return f"clog/epoch-{epoch:06d}.log"


def aux_name(epoch: int) -> str:
    """WORM file name of an epoch's auxiliary stamp index."""
    return f"clog/epoch-{epoch:06d}.aux"


class ComplianceLog:
    """Writer/reader for one epoch of ``L`` plus its stamp index."""

    def __init__(self, worm: WormServer, epoch: int,
                 retention: Optional[int] = None):
        self.worm = worm
        self.epoch = epoch
        self._retention = retention
        for name in (self.name, self.aux):
            if not worm.exists(name):
                worm.create_append_file(name, retention=retention)

    @property
    def name(self) -> str:
        """Main log file name."""
        return log_name(self.epoch)

    @property
    def aux(self) -> str:
        """Auxiliary stamp-index file name."""
        return aux_name(self.epoch)

    # -- writing --------------------------------------------------------------

    def append(self, record: CLogRecord) -> int:
        """Append one record (group-commit buffered); returns its offset
        in L.

        STAMP_TRANS records are also indexed in the auxiliary log.  The
        bytes accumulate in the WORM server's in-memory buffer until the
        next :meth:`barrier` makes them durable — callers place barriers
        at the protocol's ordering points (commit/abort durability,
        before dependent data-page write-back, maintenance intervals).
        """
        try:
            offset = self.worm.append(self.name, record.to_bytes(),
                                      durable=False)
            if record.rtype == CLogType.STAMP_TRANS:
                entry = AuxStampEntry(record.txn_id, offset,
                                      record.commit_time, record.heartbeat)
                self.worm.append(self.aux, entry.to_bytes(),
                                 durable=False)
            return offset
        except WormError as exc:
            raise ComplianceHaltError(
                "compliance log unwritable — transaction processing must "
                f"halt: {exc}") from exc

    def barrier(self) -> bool:
        """Durability barrier: drain the group-commit buffer to WORM.

        One round-trip carries every buffered append on the box — L,
        the stamp index, and any WAL-mirror bytes deferred to this
        barrier.  Returns True if anything was actually flushed.
        """
        try:
            return self.worm.sync_all() > 0
        except WormError as exc:
            raise ComplianceHaltError(
                "compliance log unwritable — transaction processing must "
                f"halt: {exc}") from exc

    def pending_bytes(self) -> int:
        """Bytes appended but not yet made durable by a barrier."""
        return self.worm.buffered(self.name) + self.worm.buffered(self.aux)

    def seal(self, close_time: int = 0) -> None:
        """Permanently close this epoch's files (audit completion).

        A CLOSE_EPOCH record terminates the log before sealing, so a
        sealed epoch is self-delimiting: a replay of a sealed epoch that
        does not end on CLOSE_EPOCH saw a truncated log.  Idempotent —
        re-sealing an already-sealed epoch appends nothing.
        """
        if not self.worm.meta(self.name).sealed:
            self.append(CLogRecord(rtype=CLogType.CLOSE_EPOCH,
                                   timestamp=close_time))
            self.barrier()
        self.worm.seal(self.name)
        self.worm.seal(self.aux)

    # -- reading --------------------------------------------------------------

    def frames(self) -> Iterator[Tuple[int, bytes, int]]:
        """(offset, buffer, cursor) for every record frame of the epoch.

        ``offset`` is the frame's position in L; ``buffer[cursor:]``
        starts at the frame's u32 length prefix with the whole frame
        buffered, so a caller can :func:`~repro.core.records.peek_frame`
        at ``cursor + 4`` or decode with :meth:`CLogRecord.from_bytes`.
        Streams the log in bounded chunks — the auditor's single pass
        never materialises the (much larger) epoch blob in memory.
        """
        name = self.name
        total = self.worm.size(name)
        buf = b""
        base = 0          # absolute offset of buf[0] in L
        cursor = 0        # parse position within buf
        fetched = 0       # bytes read from WORM so far
        while base + cursor < total:
            while True:   # ensure one whole frame is buffered
                avail = len(buf) - cursor
                if avail >= _LEN.size:
                    (length,) = _LEN.unpack_from(buf, cursor)
                    if avail >= _LEN.size + length:
                        break
                if fetched >= total:
                    raise ComplianceLogError("truncated record frame")
                chunk = self.worm.read(name, fetched, _STREAM_CHUNK)
                if not chunk:
                    raise ComplianceLogError("truncated record frame")
                fetched += len(chunk)
                if cursor:
                    buf = buf[cursor:]
                    base += cursor
                    cursor = 0
                buf = buf + chunk if buf else chunk
            yield base + cursor, buf, cursor
            cursor += _LEN.size + length

    def records(self) -> Iterator[Tuple[int, CLogRecord]]:
        """(offset, record) pairs for the whole epoch so far."""
        for offset, buf, cursor in self.frames():
            yield offset, CLogRecord.from_bytes(buf, cursor)[0]

    def aux_entries(self) -> List[AuxStampEntry]:
        """Parsed auxiliary stamp index."""
        return list(iter_aux(self.worm.read(self.aux)))

    def size(self) -> int:
        """Bytes appended to L so far (the §VII(a) space metric)."""
        return self.worm.size(self.name)

    def record_counts(self) -> dict:
        """Histogram of record types, from a streaming pass over L.

        Callers holding a plugin should prefer the continuously
        maintained ``clog_records_total`` counters (see
        ``CompliantDB.metrics()``) — this re-parse exists for readers
        (auditor-side tools) that only have the log.
        """
        counts: dict = {}
        for _, record in self.records():
            counts[record.rtype.name] = counts.get(record.rtype.name, 0) + 1
        return counts
