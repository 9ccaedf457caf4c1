"""DigestPool: the engine's one entry point for batched digest work.

Every method runs inline on the calling thread and is a pure function
of its arguments; the class exists so that the compliance plugin and
the auditor reach the batched digest paths through one object per
engine, and so that the digest units they compute are counted in one
place (``digest_pool_inline_total``).

Every digest is computed *synchronously*.  The compliance log
serialises each record into the WORM buffer at append time, so a
READ_HASH digest must exist — and must reflect the commit map as of its
position in L — before the append; deferring digests past the append
would let a later STAMP_TRANS change what the replayed auditor expects.
See DESIGN.md §10 for the full ordering argument.
"""

from __future__ import annotations

from typing import (
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..common.errors import PageFormatError
from ..obs import MetricsRegistry
from .batch import (Resolver, seq_hash_page as _seq_hash_page,
                    seq_hash_page_resumed as _seq_hash_page_resumed)
from .hashes import AddHash, Buffer, h

#: a page digest per (digest, unresolved-transaction-ids) pair, or
#: ``None`` when the page was malformed (non-leaf, truncated)
PageDigest = Optional[Tuple[bytes, FrozenSet[int]]]


class DigestPool:
    """Batched digest entry points, computed inline.

    ``digest_pool_inline_total`` (registered on ``registry``) counts the
    digest units computed: one per buffer, page or ADD-HASH item.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        reg = registry if registry is not None else MetricsRegistry()
        self._c_inline = reg.counter(
            "digest_pool_inline_total",
            help="digest units computed inline on the calling thread")

    def h(self, data: Buffer) -> bytes:
        """One-shot ``h`` (SHA-512) of a single buffer."""
        self._c_inline.inc()
        return h(data)

    def h_many(self, buffers: Sequence[Buffer]) -> List[bytes]:
        """Digest several independent buffers, in input order."""
        self._c_inline.inc(len(buffers))
        return [h(b) for b in buffers]

    def seq_hash_page(self, raw: bytes,
                      resolve: Optional[Resolver] = None
                      ) -> Tuple[bytes, FrozenSet[int]]:
        """Batched ``Hs`` of one page (the extent-walk fold)."""
        self._c_inline.inc()
        return _seq_hash_page(raw, resolve)

    def seq_hash_page_resumed(
        self,
        raw: bytes,
        resolve: Optional[Resolver],
        prev_items: Optional[Sequence[Buffer]],
        prev_digest: Optional[bytes],
    ) -> Tuple[bytes, FrozenSet[int], List[Buffer]]:
        """Batched ``Hs`` of one page, resuming a cached fold if it can.

        When the previously folded items are a byte-equal prefix of the
        current ones only the suffix is chained.  Returns the folded
        items for the caller to cache.
        """
        self._c_inline.inc()
        return _seq_hash_page_resumed(raw, resolve, prev_items,
                                      prev_digest)

    def seq_hash_pages(self, raws: Sequence[bytes],
                       resolve: Optional[Resolver] = None
                       ) -> List[PageDigest]:
        """``Hs`` of several pages, one independent chain each.

        Returns one ``(digest, unresolved)`` pair per input page, in
        input order, or ``None`` for pages that fail to parse (the
        caller decides how to flag those).
        """
        def one(raw: bytes) -> PageDigest:
            try:
                return _seq_hash_page(raw, resolve)
            except PageFormatError:
                return None

        self._c_inline.inc(len(raws))
        return [one(raw) for raw in raws]

    def add_hash_many(self, items: Iterable[Buffer]) -> AddHash:
        """ADD-HASH over many items in one batched fold."""
        if not isinstance(items, (list, tuple)):
            items = list(items)
        self._c_inline.inc(len(items))
        return AddHash().add_many(items)
