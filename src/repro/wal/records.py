# repro-lint: exhaustive=WalRecordType
"""Write-ahead-log record types and the WORM mirror's projection of them.

The engine uses **logical** WAL records: inserts of tuple versions and
physical deletes (vacuum), plus transaction lifecycle and time-split
structure records.  Logical redo is idempotent here because every tuple
version is uniquely identified by (relation, key, start), which keeps crash
recovery simple and honest without full ARIES physical redo (see DESIGN.md
§6 for the accompanying atomic-flush-group rule).

The WORM mirror of the log's tail (:mod:`repro.wal.log`) does not copy
these records byte for byte.  It holds :func:`mirror_frame`, a CRC-framed
projection of each record onto what the auditor's mirror cross-check
reads: outcomes, participation, and the (relation, key) identity of each
INSERT.  Tuple payloads are not in it; they are on WORM already, in the
compliance log's NEW_TUPLE records under ADD-HASH.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator

from ..common.errors import WalError
from ..storage.record import tuple_identity


class WalRecordType(enum.IntEnum):
    """Kinds of WAL records."""

    BEGIN = 1
    COMMIT = 2
    ABORT = 3
    #: a new tuple version was inserted (body carries its unstamped bytes)
    INSERT = 4
    #: a tuple version was physically erased (vacuum/shredding)
    PHYS_DELETE = 5
    CHECKPOINT = 6
    #: a time-split migrated a leaf's historical versions to WORM
    TIME_SPLIT = 7
    #: two-phase commit: the transaction is prepared — durably able to
    #: commit, holding its locks, awaiting the coordinator's decision.
    #: ``hist_ref`` carries the coordinator's global transaction id.
    PREPARE = 8


_BODY = struct.Struct("<QBqqHqiqHIH")
# lsn, rtype, txn_id, commit_time, relation_id, start, pgno, split_time,
# key_len, tuple_len, ref_len
_FRAME = struct.Struct("<II")  # body length, crc32
_MIRROR_HEAD = struct.Struct("<Bq")  # rtype, txn_id
_MIRROR_COMMIT = struct.Struct("<q")  # commit_time
_MIRROR_INSERT = struct.Struct("<H")  # relation_id; the key follows


@dataclass
class WalRecord:
    """One WAL record; field use depends on ``rtype``."""

    rtype: WalRecordType
    txn_id: int = 0
    lsn: int = 0
    commit_time: int = 0
    #: INSERT: the serialised (unstamped) TupleVersion
    tuple_bytes: bytes = b""
    #: PHYS_DELETE / TIME_SPLIT: target relation
    relation_id: int = 0
    #: PHYS_DELETE: encoded key of the erased version
    key: bytes = b""
    #: PHYS_DELETE: start value of the erased version
    start: int = 0
    #: TIME_SPLIT: the live leaf that was split
    pgno: int = -1
    #: TIME_SPLIT: WORM file name of the historical page;
    #: PREPARE: the coordinator's global transaction id
    hist_ref: str = ""
    #: TIME_SPLIT: the split time t
    split_time: int = 0

    def to_bytes(self) -> bytes:
        """Serialise to a CRC-framed record."""
        ref = self.hist_ref.encode("utf-8")
        body = _BODY.pack(self.lsn, int(self.rtype), self.txn_id,
                          self.commit_time, self.relation_id, self.start,
                          self.pgno, self.split_time, len(self.key),
                          len(self.tuple_bytes), len(ref))
        body += self.key + self.tuple_bytes + ref
        return _FRAME.pack(len(body), zlib.crc32(body)) + body

    @classmethod
    def from_bytes(cls, data: bytes, offset: int) -> tuple["WalRecord", int]:
        """Parse one framed record; returns (record, next offset).

        Raises :class:`WalError` on CRC mismatch or truncation — the caller
        treats a bad trailing frame as the torn tail of a crash.
        """
        if offset + _FRAME.size > len(data):
            raise WalError("truncated WAL frame header")
        length, crc = _FRAME.unpack_from(data, offset)
        offset += _FRAME.size
        body = data[offset:offset + length]
        if len(body) != length:
            raise WalError("truncated WAL frame body")
        if zlib.crc32(body) != crc:
            raise WalError("WAL frame CRC mismatch")
        (lsn, rtype, txn_id, commit_time, relation_id, start, pgno,
         split_time, klen, tlen, rlen) = _BODY.unpack_from(body, 0)
        cursor = _BODY.size
        key = bytes(body[cursor:cursor + klen])
        cursor += klen
        tuple_bytes = bytes(body[cursor:cursor + tlen])
        cursor += tlen
        hist_ref = body[cursor:cursor + rlen].decode("utf-8")
        record = cls(rtype=WalRecordType(rtype), txn_id=txn_id, lsn=lsn,
                     commit_time=commit_time, tuple_bytes=tuple_bytes,
                     relation_id=relation_id, key=key, start=start,
                     pgno=pgno, hist_ref=hist_ref, split_time=split_time)
        return record, offset + length


def mirror_frame(record: WalRecord) -> bytes:
    """The record's CRC-framed projection on the WORM mirror.

    BEGIN, ABORT and PREPARE keep ``(rtype, txn_id)``; COMMIT adds its
    commit time; INSERT adds the relation and key sliced from its tuple
    header.  The system records recovery's analysis skips project to
    nothing (``b""``).
    """
    rtype = record.rtype
    if rtype in (WalRecordType.CHECKPOINT, WalRecordType.TIME_SPLIT,
                 WalRecordType.PHYS_DELETE):
        return b""
    body = _MIRROR_HEAD.pack(int(rtype), record.txn_id)
    if rtype == WalRecordType.COMMIT:
        body += _MIRROR_COMMIT.pack(record.commit_time)
    elif rtype == WalRecordType.INSERT:
        relation_id, key = tuple_identity(record.tuple_bytes)
        body += _MIRROR_INSERT.pack(relation_id) + key
    elif rtype not in (WalRecordType.BEGIN, WalRecordType.ABORT,
                       WalRecordType.PREPARE):
        raise WalError("no mirror projection for WAL record type "
                       f"{rtype!r}")
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


def iter_mirror(data: bytes) -> Iterator[WalRecord]:
    """Decode mirror frames into the records recovery's ``analyse`` takes.

    Each yielded record carries only the projected fields (an INSERT's
    ``relation_id`` and ``key`` in place of its tuple bytes).  A torn or
    corrupt frame ends the iteration, like a torn tail of the WAL file.
    """
    offset = 0
    while offset + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, offset)
        offset += _FRAME.size
        body = data[offset:offset + length]
        offset += length
        if len(body) != length or zlib.crc32(body) != crc:
            return
        try:
            rtype_raw, txn_id = _MIRROR_HEAD.unpack_from(body, 0)
            rtype = WalRecordType(rtype_raw)
            record = WalRecord(rtype, txn_id=txn_id)
            tail = _MIRROR_HEAD.size
            if rtype == WalRecordType.COMMIT:
                record.commit_time = _MIRROR_COMMIT.unpack_from(
                    body, tail)[0]
            elif rtype == WalRecordType.INSERT:
                record.relation_id = _MIRROR_INSERT.unpack_from(
                    body, tail)[0]
                record.key = bytes(body[tail + _MIRROR_INSERT.size:])
        except (struct.error, ValueError):
            return
        yield record
