"""Tuple versions — the unit of storage in the transaction-time DBMS.

Every INSERT/UPDATE/DELETE creates a new physical :class:`TupleVersion`
(Section II): updates leave the old version intact and add a new one with a
later start time; deletes add a special *end-of-life* version.  A version's
``start`` field initially holds the creating **transaction ID** (the paper's
lazy timestamping) and is later replaced by the transaction's **commit
time**; the ``stamped`` flag says which one it currently holds.

``seq`` is the *tuple order number* of the hash-page-on-read refinement
(Section V): a per-page, monotonically increasing insertion counter that lets
the auditor re-derive the exact sequential hash ``Hs`` of a page.

The binary encoding here is both the on-page format (inside slotted pages)
and the canonical form hashed by the auditor and logged in NEW_TUPLE
records, so "tuple bytes on disk" and "tuple bytes on WORM" are directly
comparable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Tuple, Union

from ..common.errors import PageFormatError

_HEADER = struct.Struct("<BHqIHI")  # flags, relation, start, seq, klen, plen

_FLAG_STAMPED = 0x01
_FLAG_EOL = 0x02


@dataclass(frozen=True)
class TupleVersion:
    """One immutable physical version of a tuple.

    Attributes
    ----------
    relation_id:
        Numeric id of the owning relation (catalog-assigned).
    key:
        Order-preserving encoded primary key bytes.
    start:
        Commit time (microseconds) when ``stamped``; otherwise the creating
        transaction's ID (lazy timestamping).
    stamped:
        Whether ``start`` holds a commit time yet.
    eol:
        True for the special end-of-life version recording a deletion.
    seq:
        Tuple order number within its page (0 when the engine runs without
        the hash-page-on-read refinement).
    payload:
        Schema-encoded column values (empty for end-of-life versions).
    """

    relation_id: int
    key: bytes
    start: int
    stamped: bool
    eol: bool
    seq: int
    payload: bytes

    # -- ordering -------------------------------------------------------------

    def sort_key(self) -> Tuple[bytes, int]:
        """B+-tree ordering: by key bytes, then by start (version order)."""
        return (self.key, self.start)

    # -- serialisation --------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Canonical binary encoding (on-page, in NEW_TUPLE records).

        Memoised: instances are immutable, and the encoding sits on hot
        paths (page flushes, read hashing, audits).
        """
        cached = self.__dict__.get("_raw")
        if cached is not None:
            return cached
        flags = (_FLAG_STAMPED if self.stamped else 0) | \
                (_FLAG_EOL if self.eol else 0)
        header = _HEADER.pack(flags, self.relation_id, self.start, self.seq,
                              len(self.key), len(self.payload))
        raw = header + self.key + self.payload
        object.__setattr__(self, "_raw", raw)
        return raw

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0
                   ) -> Tuple["TupleVersion", int]:
        """Decode one record; returns (record, next offset)."""
        try:
            flags, relation_id, start, seq, klen, plen = \
                _HEADER.unpack_from(data, offset)
        except struct.error as exc:
            raise PageFormatError("truncated tuple header") from exc
        body_end = offset + _HEADER.size + klen + plen
        if body_end > len(data):
            raise PageFormatError("truncated tuple body")
        key = bytes(data[offset + _HEADER.size:offset + _HEADER.size +
                         klen])
        payload = bytes(data[offset + _HEADER.size + klen:body_end])
        record = cls(relation_id=relation_id, key=key, start=start,
                     stamped=bool(flags & _FLAG_STAMPED),
                     eol=bool(flags & _FLAG_EOL), seq=seq, payload=payload)
        object.__setattr__(record, "_raw", bytes(data[offset:body_end]))
        return record, body_end

    def encoded_size(self) -> int:
        """Size in bytes of :meth:`to_bytes` output."""
        return _HEADER.size + len(self.key) + len(self.payload)

    # -- auditor encodings ----------------------------------------------------

    def identity_bytes(self) -> bytes:
        """Stamped canonical bytes used for the completeness ADD-HASH.

        The auditor always hashes tuples *as if stamped* (it substitutes the
        commit time from STAMP_TRANS records before hashing, Section IV-A),
        so an unstamped on-disk copy and its stamped final form hash equal
        once the substitution is applied.  Raises if called unstamped.
        """
        if not self.stamped:
            raise PageFormatError(
                "identity_bytes requires a stamped tuple; substitute the "
                "commit time first")
        return self.to_bytes()

    def read_hash_bytes(self) -> bytes:
        """Bytes hashed for `Hs` page hashes — the tuple exactly as read.

        Section V: the auditor hashes each tuple "with its transaction ID T
        if the STAMP_TRANS record for T appears later in L; otherwise ...
        with its commit time" — i.e. in whatever stamped state the reading
        transaction saw, which is precisely the current encoding.
        """
        return self.to_bytes()

    # -- lifecycle helpers ------------------------------------------------------

    def stamp(self, commit_time: int) -> "TupleVersion":
        """Return the stamped form of a lazily timestamped version."""
        if self.stamped:
            raise PageFormatError("tuple is already stamped")
        return replace(self, start=commit_time, stamped=True)

    def with_seq(self, seq: int) -> "TupleVersion":
        """Return a copy carrying a tuple order number."""
        return replace(self, seq=seq)

    def version_id(self) -> Tuple[int, bytes, int]:
        """(relation, key, start) triple identifying this version."""
        return (self.relation_id, self.key, self.start)


RECORD_HEADER_SIZE = _HEADER.size


def tuple_identity(data: bytes) -> Tuple[int, bytes]:
    """(relation id, key) of an encoded version, sliced from its header
    without decoding the payload."""
    _, relation_id, _, _, klen, _ = _HEADER.unpack_from(data, 0)
    return relation_id, bytes(data[_HEADER.size:_HEADER.size + klen])


class TupleExtent(NamedTuple):
    """One record's contiguous byte extent on a page, header pre-parsed.

    The batched ``Hs`` fast path (:func:`repro.crypto.batch.seq_hash_page`)
    hashes ``raw`` directly — a zero-copy ``memoryview`` slice of the page
    image — instead of materialising a :class:`TupleVersion` and
    re-encoding it.  ``seq``/``stamped``/``start`` are the three header
    fields the hashing order and commit-time substitution depend on.
    """

    seq: int
    stamped: bool
    start: int
    raw: memoryview


def scan_extents(data: Union[bytes, memoryview], offset: int,
                 count: int) -> List[TupleExtent]:
    """Walk ``count`` records starting at ``offset`` without decoding them.

    Returns the records' byte extents in slot order.  Only the fixed
    header of each record is unpacked; keys and payloads stay inside the
    returned ``memoryview`` slices, so the walk allocates nothing
    proportional to tuple size.  Raises :class:`PageFormatError` on
    truncation, exactly like :meth:`TupleVersion.from_bytes`.
    """
    view = data if isinstance(data, memoryview) else memoryview(data)
    extents: List[TupleExtent] = []
    header_size = _HEADER.size
    length = len(view)
    for _ in range(count):
        try:
            flags, _relation_id, start, seq, klen, plen = \
                _HEADER.unpack_from(view, offset)
        except struct.error as exc:
            raise PageFormatError("truncated tuple header") from exc
        body_end = offset + header_size + klen + plen
        if body_end > length:
            raise PageFormatError("truncated tuple body")
        extents.append(TupleExtent(seq, bool(flags & _FLAG_STAMPED),
                                   start, view[offset:body_end]))
        offset = body_end
    return extents
