"""Cross-shard compliance auditing with one combined attestation.

Each shard is a complete compliant database — its own WORM box,
compliance log, snapshots, and epoch counter — so each shard is audited
independently (reusing the serial or partitioned auditor, or the
server-side audit op for remote shards).  The cross-shard step is pure
ADD-HASH algebra: the multiset hash is commutative and mergeable, so

    combined = shard_0.digest ∪ shard_1.digest ∪ … ∪ shard_{N-1}.digest

is the ADD-HASH of the union of all shards' tuple multisets, computed
without rehashing a single tuple (``AddHash.from_digest`` resumes each
shard's fold, :meth:`~repro.crypto.hashes.AddHash.union` merges them).
The auditor then signs a canonical serialization of the per-shard
verdicts plus the combined digests, producing one attestation that
covers the entire sharded database: any shard's tampering flips its own
``Df = Ds ∪ L`` check, which flips the combined verdict and names the
offending shard in :meth:`DistributedAuditReport.tampered_shards`.

Shards are audited **concurrently** when that is safe (each remote
shard audits inside its own server; in-process shards need their own
clocks — see :func:`~repro.shard.fanout.resolve_workers`).  The fold
below is order-fixed (shard 0 ∪ shard 1 ∪ …) and the canonical message
lists shards in index order, so the signed attestation is byte-identical
no matter how many workers audited, or in what order they finished.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.audit import AuditReport, Auditor
from ..crypto.hashes import AddHash
from ..crypto.signatures import AuditorKey
from ..obs import Observability
from .fanout import FanoutExecutor, resolve_workers


@dataclass
class DistributedAuditReport:
    """Per-shard audit reports folded into one signed attestation."""

    ok: bool
    shard_reports: List[AuditReport]
    #: ADD-HASH union of every shard's two sides of ``Df = Ds ∪ L``
    combined_expected_digest: str
    combined_final_digest: str
    final_tuples: int
    #: canonical JSON the attestation signs
    message: bytes
    attestation: bytes
    signer: str
    shard_seconds: List[float] = field(default_factory=list)

    @property
    def shards(self) -> int:
        return len(self.shard_reports)

    @property
    def epochs(self) -> List[int]:
        """Audited epoch of each shard, in shard order."""
        return [report.epoch for report in self.shard_reports]

    def tampered_shards(self) -> List[int]:
        """Indices of shards whose own audit found violations."""
        return [idx for idx, report in enumerate(self.shard_reports)
                if not report.ok]

    def verify(self, key: AuditorKey) -> bool:
        """Check the attestation signature over the canonical message."""
        return key.verify(self.message, self.attestation)

    def summary(self) -> str:
        """One-paragraph human-readable result."""
        status = "COMPLIANT" if self.ok else (
            "TAMPERING DETECTED (shards "
            f"{self.tampered_shards()})")
        lines = [f"Distributed audit over {self.shards} shard(s): "
                 f"{status}",
                 f"  combined final tuples: {self.final_tuples}, "
                 f"combined digest: "
                 f"{self.combined_final_digest[:16]}…"]
        for idx, report in enumerate(self.shard_reports):
            verdict = "ok" if report.ok else \
                f"{len(report.findings)} finding(s)"
            lines.append(
                f"  shard {idx}: epoch {report.epoch}, "
                f"{report.final_tuples} tuples, {verdict}")
        return "\n".join(lines)


def _canonical_message(shard_reports: List[AuditReport],
                       combined_expected: str, combined_final: str,
                       ok: bool) -> bytes:
    """Deterministic bytes the attestation signs: per-shard verdicts,
    digests, and epochs, plus the combined digests and overall verdict.
    Canonical JSON (sorted keys, no whitespace variance) so any party
    holding the per-shard reports can re-derive and verify it."""
    payload = {
        "v": 1,
        "ok": ok,
        "combined_expected": combined_expected,
        "combined_final": combined_final,
        "shards": [
            {
                "epoch": report.epoch,
                "ok": report.ok,
                "expected_digest": report.expected_digest,
                "final_digest": report.final_digest,
                "final_tuples": report.final_tuples,
                "findings": len(report.findings),
            }
            for report in shard_reports
        ],
    }
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class DistributedAuditor:
    """Audit every shard, then fold digests into one attestation.

    ``source`` is a :class:`~repro.shard.coordinator.ShardedDB` or a
    plain backend list.  In-process shards are audited with
    :class:`~repro.core.audit.Auditor` (``workers`` is passed through);
    remote shards run their server-side audit op and ship the report
    back — digests round-trip exactly, so the fold is identical either
    way.
    """

    def __init__(self, source: Any,
                 key: Optional[AuditorKey] = None, *,
                 workers: Optional[int] = None,
                 fanout_workers: Optional[int] = None):
        backends = getattr(source, "backends", source)
        self.backends: List[Any] = list(backends)
        if key is None:
            key = getattr(source, "auditor_key", None) \
                or AuditorKey.generate()
        self.key = key
        self.workers = workers
        # cross-shard concurrency obeys the same clock-hazard rule as
        # the coordinator: epoch rotation ticks the shard's clock, so
        # in-process shards sharing one clock are audited serially
        self.fanout_workers = resolve_workers(
            fanout_workers, self.backends,
            self._shares_source_clock(source))
        self.obs: Observability = getattr(source, "obs", None) \
            or Observability()

    def _shares_source_clock(self, source: Any) -> bool:
        clock = getattr(source, "clock", None)
        if clock is None:
            return False
        return any(hasattr(b, "engine") and
                   getattr(b, "clock", None) is clock
                   for b in self.backends)

    def _audit_shard(self, backend: Any, rotate: bool) -> AuditReport:
        if hasattr(backend, "engine"):  # in-process CompliantDB
            return Auditor(backend, self.key,
                           workers=self.workers).audit(rotate=rotate)
        return backend.audit(rotate=rotate, workers=self.workers)

    def audit(self, rotate: bool = True) -> DistributedAuditReport:
        """Audit each shard (concurrently when safe); fold and sign.

        Per-shard wall timings are kept in ``shard_seconds`` (shard
        order); the digest fold and the canonical message are index-
        ordered, so the attestation bytes do not depend on how many
        workers ran or which shard finished first."""
        with FanoutExecutor(self.fanout_workers, obs=self.obs) as pool:
            outcomes = pool.map("audit", [
                (idx, lambda b=backend: self._audit_shard(b, rotate))
                for idx, backend in enumerate(self.backends)])
        for outcome in outcomes:
            if outcome.error is not None:
                raise outcome.error
        reports: List[AuditReport] = [o.value for o in outcomes]
        seconds: List[float] = [o.seconds for o in outcomes]
        expected = AddHash()
        final = AddHash()
        for report in reports:
            if report.expected_digest:
                expected = expected.union(AddHash.from_digest(
                    bytes.fromhex(report.expected_digest)))
            if report.final_digest:
                final = final.union(AddHash.from_digest(
                    bytes.fromhex(report.final_digest),
                    report.final_tuples))
        ok = all(report.ok for report in reports)
        message = _canonical_message(reports, expected.hexdigest(),
                                     final.hexdigest(), ok)
        return DistributedAuditReport(
            ok=ok,
            shard_reports=reports,
            combined_expected_digest=expected.hexdigest(),
            combined_final_digest=final.hexdigest(),
            final_tuples=final.count,
            message=message,
            attestation=self.key.sign(message),
            signer=self.key.name,
            shard_seconds=seconds,
        )
