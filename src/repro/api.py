"""The unified database API: one typed backend interface.

:class:`ComplianceBackend` is the protocol every database-shaped object
in this tree speaks — the in-process :class:`~repro.core.database.
CompliantDB`, the remote :class:`~repro.server.client.ServerClient`, and
the :class:`~repro.shard.ShardedDB` coordinator (which both *consumes*
backends as its shards and *implements* the protocol itself, so shards
nest).  Before this module existed the two concrete classes exposed
near-identical but independently drifting method sets; the shard router
would have had to special-case its backends.  The protocol pins the
shared surface, and the conformance suite (``tests/test_api_conformance
.py``) runs one parametrized battery against every implementation.

Transaction handles are deliberately opaque (:data:`TxnHandle`): the
engine hands out live :class:`~repro.txn.manager.Transaction` objects,
the wire client hands out integer ids, and the coordinator hands out
:class:`~repro.shard.coordinator.DistributedTxn` envelopes.  Callers
must only pass a handle back to the backend that issued it.

Signature alignment: every backend's ``create_relation`` takes
``(schema, use_tsb=None)`` with a :class:`~repro.common.codec.Schema`;
:func:`require_schema` rejects anything else with a
:class:`~repro.common.errors.ConfigError`.
"""

from __future__ import annotations

from typing import (Any, ContextManager, Dict, List, Optional, Protocol,
                    Tuple, runtime_checkable)

from .common.codec import Schema
from .common.errors import ConfigError

#: an opaque transaction handle: a live ``Transaction`` (in-process), an
#: ``int`` (over the wire), or a ``DistributedTxn`` (sharded)
TxnHandle = Any

Row = Dict[str, Any]
Key = Tuple[Any, ...]


@runtime_checkable
class ComplianceBackend(Protocol):
    """The surface a compliant database presents, local or remote.

    Every method maps 1:1 onto the paper's architecture operations; the
    protocol exists so routers, loaders, and drivers can be written once
    against it and handed any implementation.
    """

    # -- transactions ------------------------------------------------------

    def begin(self) -> TxnHandle:
        """Start a transaction; returns an opaque handle."""
        ...

    def commit(self, txn: TxnHandle) -> int:
        """Commit; returns the commit time."""
        ...

    def abort(self, txn: TxnHandle) -> None:
        """Roll back a transaction."""
        ...

    def prepare(self, txn: TxnHandle, gid: str) -> None:
        """2PC phase one: durably prepare under the coordinator's gid."""
        ...

    def transaction(self) -> ContextManager[TxnHandle]:
        """Context manager: commit on success, abort on exception."""
        ...

    @property
    def halted(self) -> bool:
        """Whether transaction processing is halted (compliance halt)."""
        ...

    # -- DDL / DML ---------------------------------------------------------

    def create_relation(self, schema: Schema,
                        use_tsb: Optional[bool] = None) -> Any:
        """Create a relation from a :class:`Schema` (audited)."""
        ...

    def insert(self, txn: TxnHandle, relation: str, row: Row) -> None:
        """Insert a tuple."""
        ...

    def insert_many(self, txn: TxnHandle, relation: str,
                    rows: List[Row]) -> None:
        """Insert a batch of tuples into one relation."""
        ...

    def update(self, txn: TxnHandle, relation: str, row: Row) -> None:
        """Write a new version of an existing tuple."""
        ...

    def delete(self, txn: TxnHandle, relation: str, key: Key) -> None:
        """Logically delete a tuple (end-of-life version)."""
        ...

    def get(self, relation: str, key: Key, txn: Optional[TxnHandle] = None,
            at: Optional[int] = None) -> Optional[Row]:
        """Read a row, current or as of a past time."""
        ...

    def scan(self, relation: str, lo: Optional[Key] = None,
             hi: Optional[Key] = None, txn: Optional[TxnHandle] = None,
             at: Optional[int] = None) -> List[Tuple[Key, Row]]:
        """Range scan of visible rows, ordered by key."""
        ...

    # -- time / maintenance ------------------------------------------------

    def now(self) -> int:
        """The backend's current (simulated) time."""
        ...

    def maintenance(self, force: bool = False) -> bool:
        """Run regret-interval duties if due; True when work was done."""
        ...

    def checkpoint(self) -> None:
        """Apply pending lazy stamps and flush WAL + dirty pages."""
        ...

    def metrics(self) -> Dict[str, Any]:
        """Metrics snapshot (JSON-exporter shape)."""
        ...

    def close(self) -> None:
        """Release the backend (clean shutdown / disconnect)."""
        ...


def require_schema(schema: Any) -> Schema:
    """Return ``schema``, or raise :class:`ConfigError` unless it is a
    :class:`~repro.common.codec.Schema` — every backend's
    ``create_relation`` takes exactly ``(schema, use_tsb=None)``."""
    if not isinstance(schema, Schema):
        raise ConfigError(
            f"create_relation needs a Schema (got {type(schema).__name__})")
    return schema


__all__ = ["ComplianceBackend", "Key", "Row", "TxnHandle",
           "require_schema"]
