"""Exporters for the metrics registry.

Two surfaces, per the observability redesign:

* :func:`prometheus_text` — Prometheus exposition text format, used by
  the ``repro-admin metrics`` subcommand.
* JSON — :meth:`MetricsRegistry.snapshot` already returns plain
  JSON-able dicts; :func:`metrics_report` bundles a snapshot with the
  tracer's span tallies, the shape embedded in BENCH files and
  returned by ``CompliantDB.metrics()``.

Output is byte-stable for a given registry state: families and children
are emitted in sorted order and floats use ``repr`` (shortest
round-trip form).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Number,
    format_labels,
)
from .tracing import Tracer


def _fmt(value: Number) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in Prometheus exposition text format."""
    lines: List[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for metric in family.sorted_children():
            labels = format_labels(metric.labels)
            if isinstance(metric, (Counter, Gauge)):
                lines.append(
                    f"{family.name}{labels} {_fmt(metric.value)}"
                )
            elif isinstance(metric, Histogram):
                for le, count in metric.cumulative():
                    pairs = list(metric.labels) + [("le", le)]
                    bucket_labels = format_labels(tuple(pairs))
                    lines.append(
                        f"{family.name}_bucket{bucket_labels} {count}"
                    )
                lines.append(
                    f"{family.name}_sum{labels} {_fmt(metric.sum)}"
                )
                lines.append(
                    f"{family.name}_count{labels} {metric.total}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def metrics_report(
    registry: MetricsRegistry, tracer: Optional[Tracer] = None
) -> Dict[str, object]:
    """Snapshot + span tallies: the ``CompliantDB.metrics()`` payload."""
    report: Dict[str, object] = dict(registry.snapshot())
    if tracer is not None:
        report["spans"] = tracer.span_counts()
        report["spans_dropped"] = tracer.dropped
    return report


def publish_hash_stats(registry: MetricsRegistry) -> Dict[str, int]:
    """Publish the process-wide SHA-512 work counters into a registry.

    ``repro.crypto.HASH_STATS`` is process-global (the ``h`` memo is
    shared), so it cannot be registry-backed the way per-component
    counters are; instead exporters call this to mirror the current
    totals into ``hash_sha512_calls`` / ``hash_memo_hits`` gauges right
    before snapshotting.  Returns the snapshot it published.
    """
    from ..crypto.hashes import HASH_STATS

    snap = HASH_STATS.snapshot()
    registry.gauge(
        "hash_sha512_calls",
        help="process-wide real SHA-512 compressions (all threads)",
    ).set(snap["sha512_calls"])
    registry.gauge(
        "hash_memo_hits",
        help="process-wide memoised h() lookups served (all threads)",
    ).set(snap["memo_hits"])
    return snap
