"""Hash constructions (ADD-HASH, Hs), batched digests, and signatures."""

from .batch import seq_hash_page
from .hashes import (DIGEST_BYTES, HASH_STATS, AddHash, Buffer, HashStats,
                     SeqHash, add_hash, h, h_int, seq_hash)
from .pool import DigestPool
from .signatures import SIGNATURE_BYTES, AuditorKey

__all__ = [
    "AddHash", "AuditorKey", "Buffer", "DIGEST_BYTES", "DigestPool",
    "HASH_STATS", "HashStats", "SIGNATURE_BYTES",
    "SeqHash", "add_hash", "h", "h_int", "seq_hash", "seq_hash_page",
]
