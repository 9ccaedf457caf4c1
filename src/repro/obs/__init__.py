"""``repro.obs`` — unified observability: metrics, tracing, exporters.

One registry + one tracer per database (injectable; see
:class:`Observability`).  Counters/gauges/histograms live in
:mod:`~repro.obs.registry`; deterministic SimulatedClock-driven spans in
:mod:`~repro.obs.tracing`; Prometheus/JSON exporters in
:mod:`~repro.obs.export`.  The registry is the only read surface for a
counter: ``db.metrics()`` or ``obs.registry.value(...)``.  See
DESIGN.md §8.
"""

from .export import metrics_report, prometheus_text, publish_hash_stats
from .observability import Observability
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracing import Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "Tracer",
    "metrics_report",
    "prometheus_text",
    "publish_hash_stats",
]
