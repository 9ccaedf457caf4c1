"""Compliance-log record types (the contents of ``L`` on WORM).

Record inventory, mapped to the paper:

* ``NEW_TUPLE`` — a tuple version reached a disk page (Section IV).  Carries
  the tuple bytes exactly as written (possibly still holding a transaction
  ID under lazy timestamping) plus the page number (PGNO, added by the
  hash-page-on-read refinement of Section V).
* ``STAMP_TRANS`` — a transaction committed: (txn id, commit time).  Written
  only *after* the commit.  ``heartbeat=True`` marks the dummy records that
  prove liveness through idle regret intervals.
* ``ABORT`` — a transaction rolled back (Section IV-B).
* ``UNDO`` — a tuple version was physically removed from a page (abort
  write-back or vacuum); hash-page-on-read mode only (Section V/VIII).
* ``PAGE_SPLIT`` — a page split, with the contents of both result pages
  "immediately after the split" and the separator routed to the parent
  (Section V; covers data and index splits).
* ``READ_HASH`` — the sequential hash ``Hs`` of a page read from disk
  (Section V).
* ``SHREDDED`` — the vacuum process intends to erase an expired tuple:
  tuple id, PGNO, content, timestamp (Section VIII).
* ``START_RECOVERY`` — crash recovery began (Section IV-B).
* ``PAGE_RESET`` — emitted during hash-page-on-read recovery with a page's
  on-disk contents, re-basing the auditor's page replay at the crash
  boundary (this repo's concretisation of the crash-window details the
  paper omits).  Only a page named by a page-state record since the last
  ``CHECKPOINT`` can legitimately be reset; the auditor flags any other
  as ``reset-unexplained``.
* ``MIGRATE`` — a time split moved historical versions to a WORM page
  (Section VI); the page contents live in the referenced WORM file.
* ``CLOSE_EPOCH`` — terminates an epoch's log at audit time.
* ``CHECKPOINT`` — payload-free marker written after every dirty page
  reached disk (hash-page-on-read only): at this point of ``L`` every
  page on disk equals the state ``L`` implies.  Recovery re-bases only
  the pages named by a page-state record (:data:`PAGE_STATE_TYPES`)
  after the last durable marker; the start of the epoch counts as one.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from ..common.errors import ComplianceLogError


class CLogType(enum.IntEnum):
    """Kinds of compliance-log records."""

    NEW_TUPLE = 1
    STAMP_TRANS = 2
    ABORT = 3
    UNDO = 4
    PAGE_SPLIT = 5
    READ_HASH = 6
    SHREDDED = 7
    START_RECOVERY = 8
    MIGRATE = 9
    PAGE_RESET = 10
    CLOSE_EPOCH = 11
    CHECKPOINT = 12


#: record types that change the page state L implies for the pages they
#: name (every pgno field of a PAGE_SPLIT, the ``pgno`` of the others);
#: READ_HASH only observes a page
PAGE_STATE_TYPES = frozenset({
    CLogType.NEW_TUPLE, CLogType.UNDO, CLogType.PAGE_SPLIT,
    CLogType.SHREDDED, CLogType.MIGRATE, CLogType.PAGE_RESET})


def state_pages(rtype: int, pgno: int, left: int, right: int,
                parent: int) -> Tuple[int, ...]:
    """The pages whose implied state a record changes, from its routing
    fields (the :func:`peek_frame` tuple); empty for other types."""
    if rtype == CLogType.PAGE_SPLIT:
        return tuple(p for p in (pgno, left, right, parent) if p >= 0)
    if rtype in PAGE_STATE_TYPES and pgno >= 0:
        return (pgno,)
    return ()


_FIXED = struct.Struct("<BBqqHiqqiiiqq")
# rtype, flags, txn_id, commit_time, relation_id, pgno, timestamp,
# sep_start, left_pgno, right_pgno, parent_pgno, start, split_time
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
#: bytes of the u32 length prefix in front of every record body
FRAME_PREFIX = _U32.size

_FLAG_HEARTBEAT = 0x01
_FLAG_IS_INDEX = 0x02

#: cheap partial decodes used by the partitioned audit's peek-skip path
_PEEK_PGNO = struct.Struct("<i")
_PEEK_SPLIT = struct.Struct("<iii")
#: fixed-header offsets of the peeked fields (see ``_FIXED`` layout)
_PGNO_OFFSET = 20
_SPLIT_OFFSET = 40


def peek_frame(data: bytes, body_offset: int
               ) -> Tuple[int, int, int, int, int]:
    """Cheaply read the routing fields of an already-framed record body.

    Returns ``(rtype, pgno, left_pgno, right_pgno, parent_pgno)`` without
    materialising a :class:`CLogRecord`.  The caller must have validated
    the frame (length prefix and body extent) — this reads straight from
    the fixed header, which every record type serialises in full.
    """
    rtype = data[body_offset]
    (pgno,) = _PEEK_PGNO.unpack_from(data, body_offset + _PGNO_OFFSET)
    left, right, parent = _PEEK_SPLIT.unpack_from(
        data, body_offset + _SPLIT_OFFSET)
    return rtype, pgno, left, right, parent


@dataclass
class CLogRecord:
    """One record of the compliance log; field use depends on ``rtype``."""

    rtype: CLogType
    txn_id: int = 0
    commit_time: int = 0
    relation_id: int = 0
    pgno: int = -1
    timestamp: int = 0
    heartbeat: bool = False
    is_index: bool = False
    #: PAGE_SPLIT: separator routed to the parent
    sep_key: bytes = b""
    sep_start: int = 0
    left_pgno: int = -1
    right_pgno: int = -1
    parent_pgno: int = -1
    #: NEW_TUPLE / UNDO / SHREDDED: the tuple's canonical bytes
    tuple_bytes: bytes = b""
    #: SHREDDED: the erased version's (key, start) identity
    key: bytes = b""
    start: int = 0
    #: READ_HASH: the Hs value
    page_hash: bytes = b""
    #: MIGRATE: WORM file holding the historical page
    hist_ref: str = ""
    split_time: int = 0
    #: PAGE_SPLIT / PAGE_RESET: serialised page contents
    left_content: List[bytes] = field(default_factory=list)
    right_content: List[bytes] = field(default_factory=list)

    def state_pages(self) -> Tuple[int, ...]:
        """See :func:`state_pages`."""
        return state_pages(self.rtype, self.pgno, self.left_pgno,
                           self.right_pgno, self.parent_pgno)

    def to_bytes(self) -> bytes:
        """Length-framed serialisation."""
        flags = (_FLAG_HEARTBEAT if self.heartbeat else 0) | \
                (_FLAG_IS_INDEX if self.is_index else 0)
        parts = [_FIXED.pack(int(self.rtype), flags, self.txn_id,
                             self.commit_time, self.relation_id, self.pgno,
                             self.timestamp, self.sep_start, self.left_pgno,
                             self.right_pgno, self.parent_pgno, self.start,
                             self.split_time)]
        for blob in (self.sep_key, self.key):
            parts.append(_U16.pack(len(blob)))
            parts.append(blob)
        parts.append(_U32.pack(len(self.tuple_bytes)))
        parts.append(self.tuple_bytes)
        parts.append(_U16.pack(len(self.page_hash)))
        parts.append(self.page_hash)
        ref = self.hist_ref.encode("utf-8")
        parts.append(_U16.pack(len(ref)))
        parts.append(ref)
        for content in (self.left_content, self.right_content):
            parts.append(_U32.pack(len(content)))
            for blob in content:
                parts.append(_U32.pack(len(blob)))
                parts.append(blob)
        body = b"".join(parts)
        return _U32.pack(len(body)) + body

    @classmethod
    def from_bytes(cls, data: bytes, offset: int
                   ) -> Tuple["CLogRecord", int]:
        """Parse one framed record; returns (record, next offset)."""
        try:
            (length,) = _U32.unpack_from(data, offset)
        except struct.error as exc:
            raise ComplianceLogError("truncated record frame") from exc
        offset += _U32.size
        end = offset + length
        if end > len(data):
            raise ComplianceLogError("truncated record body")
        (rtype, flags, txn_id, commit_time, relation_id, pgno, timestamp,
         sep_start, left_pgno, right_pgno, parent_pgno, start,
         split_time) = _FIXED.unpack_from(data, offset)
        cursor = offset + _FIXED.size

        def take16() -> bytes:
            nonlocal cursor
            (n,) = _U16.unpack_from(data, cursor)
            cursor += _U16.size
            blob = bytes(data[cursor:cursor + n])
            cursor += n
            return blob

        def take32() -> bytes:
            nonlocal cursor
            (n,) = _U32.unpack_from(data, cursor)
            cursor += _U32.size
            blob = bytes(data[cursor:cursor + n])
            cursor += n
            return blob

        sep_key = take16()
        key = take16()
        tuple_bytes = take32()
        page_hash = take16()
        hist_ref = take16().decode("utf-8")
        contents: List[List[bytes]] = []
        for _ in range(2):
            (count,) = _U32.unpack_from(data, cursor)
            cursor += _U32.size
            contents.append([take32() for _ in range(count)])
        if cursor != end:
            raise ComplianceLogError("record length mismatch")
        record = cls(rtype=CLogType(rtype), txn_id=txn_id,
                     commit_time=commit_time, relation_id=relation_id,
                     pgno=pgno, timestamp=timestamp,
                     heartbeat=bool(flags & _FLAG_HEARTBEAT),
                     is_index=bool(flags & _FLAG_IS_INDEX),
                     sep_key=sep_key, sep_start=sep_start,
                     left_pgno=left_pgno, right_pgno=right_pgno,
                     parent_pgno=parent_pgno, tuple_bytes=tuple_bytes,
                     key=key, start=start, page_hash=page_hash,
                     hist_ref=hist_ref, split_time=split_time,
                     left_content=contents[0], right_content=contents[1])
        return record, end


def iter_records(data: bytes) -> Iterator[Tuple[int, CLogRecord]]:
    """Yield (offset, record) for each record in a log blob."""
    offset = 0
    while offset < len(data):
        record, next_offset = CLogRecord.from_bytes(data, offset)
        yield offset, record
        offset = next_offset


# -- auxiliary STAMP_TRANS index (Section IV-A) ------------------------------

_AUX = struct.Struct("<qQqB")  # txn_id, L offset, commit_time, heartbeat


@dataclass
class AuxStampEntry:
    """One entry of the auxiliary WORM log that indexes STAMP_TRANS records.
    """

    txn_id: int
    offset: int
    commit_time: int
    heartbeat: bool

    def to_bytes(self) -> bytes:
        return _AUX.pack(self.txn_id, self.offset, self.commit_time,
                         1 if self.heartbeat else 0)


def iter_aux(data: bytes) -> Iterator[AuxStampEntry]:
    """Parse the auxiliary stamp-index log."""
    if len(data) % _AUX.size:
        raise ComplianceLogError("aux log length not a record multiple")
    for offset in range(0, len(data), _AUX.size):
        txn_id, l_offset, commit_time, heartbeat = _AUX.unpack_from(
            data, offset)
        yield AuxStampEntry(txn_id, l_offset, commit_time, bool(heartbeat))
