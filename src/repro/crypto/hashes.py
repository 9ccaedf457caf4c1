"""Cryptographic hash constructions from the paper.

Three constructions are used by the compliance architecture:

* ``h`` — a plain big one-way hash ("512 bits or more"); we use SHA-512.
* :class:`AddHash` — Bellare–Micciancio's **ADD-HASH** incremental,
  commutative multiset hash:  ``ADD_HASH(a1..an) = Σ h(ai) mod 2^512``.
  The auditor uses it to check the tuple completeness condition
  ``Df = Ds ∪ L`` in a single unsorted pass (Section IV-A).
* :class:`SeqHash` — the sequential page hash ``Hs`` used by the
  hash-page-on-read refinement (Section V).  The paper defines
  ``Hs(r1..rn) = H(h(r1), H(r2..rn))``; we implement the equivalent
  left-fold chain ``s_i = sha512(s_{i-1} || h(r_i))`` so that appending a
  tuple to a page updates the hash in O(1), which is exactly the incremental
  replay the auditor performs while scanning the compliance log.

All digests are 64 bytes.  :class:`AddHash` additionally supports
*subtraction*, which the auditor uses when recomputing snapshot-page hashes
after vacuuming (Section VIII).

Batched entry points (:meth:`SeqHash.add_many`, :meth:`AddHash.add_many`,
:func:`~repro.crypto.batch.seq_hash_page`) fold many items with one pass
and no per-item intermediate allocations; they are byte-identical to the
per-item loops.  Everything here is thread-safe, because server
connection threads and shard fan-out workers hash concurrently: the
work counters are per-thread shards summed on read, and the ``h`` memo
tolerates concurrent eviction.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Union

DIGEST_BYTES = 64
_MODULUS = 1 << (DIGEST_BYTES * 8)
_MASK = _MODULUS - 1

#: anything ``hashlib`` accepts without copying
Buffer = Union[bytes, bytearray, memoryview]


class _StatsShard:
    """One thread's private counters (written without any locking)."""

    __slots__ = ("sha512_calls", "memo_hits")

    def __init__(self) -> None:
        self.sha512_calls = 0
        self.memo_hits = 0


class HashStats:
    """Process-wide SHA-512 work counters, safe under concurrent hashing.

    Writers bump a per-thread shard (no lock, no contention on the hot
    path); readers sum the shards.  The legacy attribute surface —
    ``sha512_calls`` and ``memo_hits`` as plain reads — is preserved as
    summing properties, so existing callers and tests keep working.
    """

    __slots__ = ("_lock", "_local", "_shards")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._shards: List[_StatsShard] = []

    def shard(self) -> _StatsShard:
        """This thread's private counter shard (created on first use)."""
        shard: _StatsShard = getattr(self._local, "shard", None)  # type: ignore[assignment]
        if shard is None:
            shard = _StatsShard()
            with self._lock:
                self._shards.append(shard)
            self._local.shard = shard
        return shard

    @property
    def sha512_calls(self) -> int:
        """Real SHA-512 compressions performed, summed across threads."""
        with self._lock:
            return sum(s.sha512_calls for s in self._shards)

    @property
    def memo_hits(self) -> int:
        """Memoised ``h`` lookups served, summed across threads."""
        with self._lock:
            return sum(s.memo_hits for s in self._shards)

    def snapshot(self) -> Dict[str, int]:
        """Point-in-time copy of both counters (for bench deltas)."""
        with self._lock:
            return {
                "sha512_calls": sum(s.sha512_calls for s in self._shards),
                "memo_hits": sum(s.memo_hits for s in self._shards),
            }


#: process-wide counters: every real SHA-512 compression bumps
#: ``sha512_calls``; every memoised ``h`` lookup bumps ``memo_hits``
HASH_STATS = HashStats()

#: bounded LRU for ``h``: a tuple's digest is computed once and reused
#: across NEW_TUPLE emission, READ_HASH chains, and audit replay
_MEMO_MAX = 16384
#: only memoise small inputs (tuple-sized); hashing whole page images
#: through the memo would let a handful of entries pin megabytes
_MEMO_ITEM_MAX = 512
_memo: "OrderedDict[bytes, bytes]" = OrderedDict()


def _sha512(data: Buffer) -> bytes:
    HASH_STATS.shard().sha512_calls += 1
    return hashlib.sha512(data).digest()


def h(data: Buffer) -> bytes:
    """The underlying big one-way hash (SHA-512), memoised for small
    inputs (bounded LRU).

    Accepts any buffer without copying; memo keys are materialised to
    ``bytes`` only for memo-sized inputs, so hashing a large
    ``memoryview`` (a page image, a tuple extent) never copies it.
    """
    if len(data) > _MEMO_ITEM_MAX:
        return _sha512(data)
    if not isinstance(data, bytes):
        data = bytes(data)  # memo keys must be hashable and immutable
    cached = _memo.get(data)
    if cached is not None:
        HASH_STATS.shard().memo_hits += 1
        try:
            _memo.move_to_end(data)
        except KeyError:
            # concurrently evicted between get and move: reinsert
            _memo[data] = cached
        return cached
    digest = _sha512(data)
    _memo[data] = digest
    if len(_memo) > _MEMO_MAX:
        try:
            _memo.popitem(last=False)
        except KeyError:
            pass  # another thread already evicted
    return digest


def h_int(data: Buffer) -> int:
    """``h`` interpreted as an unsigned integer (for ADD-HASH sums)."""
    return int.from_bytes(h(data), "big")


class AddHash:
    """Incremental, commutative, pre-image-resistant multiset hash.

    Properties required by Section IV-A:

    * *incremental*: ``add`` is O(1) given the running value;
    * *commutative*: insertion order never affects the digest;
    * *secure*: finding a different multiset with the same digest requires
      breaking the underlying modular-sum construction (Bellare–Micciancio).

    The hash is over a **multiset**: adding the same item twice is different
    from adding it once.  ``remove`` subtracts an item, enabling the
    vacuum-aware snapshot recomputation of Section VIII.
    """

    __slots__ = ("_acc", "_count")

    def __init__(self, items: Iterable[Buffer] = ()):
        self._acc = 0
        self._count = 0
        if items:
            self.add_many(items)

    @classmethod
    def from_digest(cls, digest: bytes, count: int = 0) -> "AddHash":
        """Reconstruct a running hash from a previously emitted digest.

        The modular sum *is* the state, so a 64-byte digest plus the
        item count fully resumes the fold.  This is what lets a shard
        coordinator take per-shard audit digests off the wire and
        :meth:`union` them into one cross-shard attestation without
        rehashing a single tuple (the partition-mergeability the
        parallel auditor already relies on).
        """
        if len(digest) != DIGEST_BYTES:
            raise ValueError(
                f"AddHash digest must be {DIGEST_BYTES} bytes, "
                f"got {len(digest)}")
        resumed = cls()
        resumed._acc = int.from_bytes(digest, "big")
        resumed._count = count
        return resumed

    def add(self, item: Buffer) -> "AddHash":
        """Fold one item into the multiset hash."""
        self._acc = (self._acc + h_int(item)) & _MASK
        self._count += 1
        return self

    def add_many(self, items: Iterable[Buffer]) -> "AddHash":
        """Fold many items in one pass.

        Byte-identical to repeated :meth:`add` — modular addition is
        associative — but the per-item ``h_int`` values are summed as a
        plain Python integer and reduced mod 2^512 once, instead of one
        masked reduction per item.
        """
        acc = 0
        count = 0
        for item in items:
            acc += h_int(item)
            count += 1
        self._acc = (self._acc + acc) & _MASK
        self._count += count
        return self

    def remove(self, item: Buffer) -> "AddHash":
        """Subtract one item (modular inverse of :meth:`add`)."""
        self._acc = (self._acc - h_int(item)) & _MASK
        self._count -= 1
        return self

    def union(self, other: "AddHash") -> "AddHash":
        """Return the hash of the multiset union of two hashed multisets."""
        merged = AddHash()
        merged._acc = (self._acc + other._acc) & _MASK
        merged._count = self._count + other._count
        return merged

    @property
    def count(self) -> int:
        """Number of items folded in (adds minus removes)."""
        return self._count

    def digest(self) -> bytes:
        """The 64-byte multiset digest."""
        return self._acc.to_bytes(DIGEST_BYTES, "big")

    def hexdigest(self) -> str:
        """Hex form of :meth:`digest`."""
        return self.digest().hex()

    def copy(self) -> "AddHash":
        """An independent copy of the running state."""
        dup = AddHash()
        dup._acc = self._acc
        dup._count = self._count
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AddHash):
            return NotImplemented
        return self._acc == other._acc and self._count == other._count

    def __hash__(self) -> int:
        return hash((self._acc, self._count))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AddHash(count={self._count}, digest={self.hexdigest()[:16]}…)"


_SEQ_IV = h(b"repro.SeqHash.iv")


class SeqHash:
    """Sequential (order-sensitive) hash chain ``Hs`` over page tuples.

    Used by hash-page-on-read: tuples on a page are ordered by their *tuple
    order number* and chained.  Equal digests imply (collision resistance
    aside) the same tuples in the same order.
    """

    __slots__ = ("_state", "_count")

    def __init__(self, items: Iterable[Buffer] = ()):
        self._state = _SEQ_IV
        self._count = 0
        if items:
            self.add_many(items)

    @classmethod
    def from_state(cls, state: bytes, count: int = 0) -> "SeqHash":
        """Resume a chain from a previously computed digest.

        The chain state after item ``i`` *is* the digest of items
        ``0..i``, so a caller that kept a fold's digest can continue it
        with further items — the O(1)-append property the
        hash-page-on-read refinement relies on.
        """
        chain = cls()
        chain._state = state
        chain._count = count
        return chain

    def add(self, item: Buffer) -> "SeqHash":
        """Chain one more item onto the sequence."""
        self._state = _sha512(self._state + h(item))
        self._count += 1
        return self

    def add_many(self, items: Iterable[Buffer]) -> "SeqHash":
        """Chain many items in order, one reused hasher object per link.

        Byte-identical to repeated :meth:`add`: each link is still
        ``sha512(state || h(item))``, but state and item digest are fed
        to the hasher as two updates, skipping the intermediate 128-byte
        concatenation that :meth:`add` allocates per link.
        """
        state = self._state
        sha512 = hashlib.sha512
        count = 0
        for item in items:
            hasher = sha512(state)
            hasher.update(h(item))
            state = hasher.digest()
            count += 1
        if count:
            HASH_STATS.shard().sha512_calls += count
            self._state = state
            self._count += count
        return self

    @property
    def count(self) -> int:
        """Number of items chained so far."""
        return self._count

    def digest(self) -> bytes:
        """The 64-byte chain digest."""
        return self._state

    def hexdigest(self) -> str:
        """Hex form of :meth:`digest`."""
        return self._state.hex()

    def copy(self) -> "SeqHash":
        """An independent copy of the running chain state."""
        dup = SeqHash()
        dup._state = self._state
        dup._count = self._count
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeqHash):
            return NotImplemented
        return self._state == other._state

    def __hash__(self) -> int:
        return hash(self._state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeqHash(count={self._count}, digest={self.hexdigest()[:16]}…)"


def seq_hash(items: Iterable[Buffer]) -> bytes:
    """One-shot ``Hs`` over an ordered iterable of encoded tuples."""
    return SeqHash(items).digest()


def add_hash(items: Iterable[Buffer]) -> bytes:
    """One-shot ADD-HASH over an iterable of encoded tuples."""
    return AddHash(items).digest()
