"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Design goals, in priority order:

1. **Determinism.**  Nothing in here reads wall-clock time or entropy;
   metric values are pure functions of the operations applied to them.
   Snapshots iterate in sorted order so exported text is byte-stable.
2. **Cheap hot paths.**  Components bind child metrics once (at
   construction) and call ``inc()`` / ``observe()`` on the bound object;
   the fast path is a single attribute add with no dict lookups.
3. **Injectability.**  There is no import-time global registry baked
   into components; every component takes an
   :class:`~repro.obs.observability.Observability` (or defaults to a
   private one).

Metric identity is ``name`` plus a sorted label set, Prometheus-style:
``clog_records_total{type="NEW_TUPLE"}``.  A name maps to exactly one
*family* with one kind (counter/gauge/histogram) and, for histograms,
one bucket-boundary tuple; conflicting re-registration raises
:class:`~repro.common.errors.ObsError`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..common.errors import ObsError

Number = Union[int, float]

#: default latency bucket boundaries, in (simulated or wall) seconds
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)

#: default size bucket boundaries, in bytes
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    64.0,
    256.0,
    1024.0,
    4096.0,
    16384.0,
    65536.0,
    262144.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted(labels.items()))


def format_labels(labels: LabelKey) -> str:
    """Render a label key as ``{k="v",...}`` (empty string if no labels)."""
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


class Counter:
    """A monotonically non-decreasing accumulator."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: LabelKey) -> None:
        self.labels = labels
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ObsError("counter increments must be non-negative")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: LabelKey) -> None:
        self.labels = labels
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount


class Histogram:
    """Fixed-boundary histogram (cumulative buckets, Prometheus-style).

    ``boundaries`` are the *upper* bounds of the finite buckets; an
    implicit ``+Inf`` bucket catches everything above the last bound.
    """

    __slots__ = ("labels", "boundaries", "bucket_counts", "total", "sum")

    def __init__(
        self, labels: LabelKey, boundaries: Tuple[float, ...]
    ) -> None:
        self.labels = labels
        self.boundaries = boundaries
        # one slot per finite boundary plus the +Inf overflow slot
        self.bucket_counts: List[int] = [0] * (len(boundaries) + 1)
        self.total = 0
        self.sum: float = 0.0

    def observe(self, value: Number) -> None:
        self.bucket_counts[bisect_left(self.boundaries, value)] += 1
        self.total += 1
        self.sum += value

    def cumulative(self) -> List[Tuple[str, int]]:
        """``[(le, cumulative_count), ...]`` ending with ``+Inf``."""
        out: List[Tuple[str, int]] = []
        running = 0
        for bound, n in zip(self.boundaries, self.bucket_counts):
            running += n
            out.append((repr(bound), running))
        running += self.bucket_counts[-1]
        out.append(("+Inf", running))
        return out


Metric = Union[Counter, Gauge, Histogram]


class MetricFamily:
    """All children (label combinations) of one metric name."""

    __slots__ = ("name", "kind", "help", "boundaries", "children")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        boundaries: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.boundaries = boundaries
        self.children: Dict[LabelKey, Metric] = {}

    def child(self, labels: LabelKey) -> Metric:
        metric = self.children.get(labels)
        if metric is None:
            if self.kind == "counter":
                metric = Counter(labels)
            elif self.kind == "gauge":
                metric = Gauge(labels)
            else:
                assert self.boundaries is not None
                metric = Histogram(labels, self.boundaries)
            self.children[labels] = metric
        return metric

    def sorted_children(self) -> List[Metric]:
        return [self.children[k] for k in sorted(self.children)]


def _validate_buckets(boundaries: Sequence[float]) -> Tuple[float, ...]:
    bounds = tuple(float(b) for b in boundaries)
    if not bounds:
        raise ObsError("histogram needs at least one bucket boundary")
    if list(bounds) != sorted(set(bounds)):
        raise ObsError("histogram boundaries must be strictly increasing")
    return bounds


class MetricsRegistry:
    """Holds metric families and hands out bound children.

    Accessors are idempotent: asking for the same (name, labels) twice
    returns the same object, so components may freely re-bind.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    # -- registration ------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        boundaries: Optional[Tuple[float, ...]] = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help_text, boundaries)
            self._families[name] = family
            return family
        if family.kind != kind:
            raise ObsError(
                f"metric {name!r} already registered as {family.kind}, "
                f"not {kind}"
            )
        if kind == "histogram" and family.boundaries != boundaries:
            raise ObsError(
                f"histogram {name!r} re-registered with different "
                f"bucket boundaries"
            )
        if help_text and not family.help:
            family.help = help_text
        return family

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        family = self._family(name, "counter", help)
        child = family.child(_label_key(labels))
        assert isinstance(child, Counter)
        return child

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        family = self._family(name, "gauge", help)
        child = family.child(_label_key(labels))
        assert isinstance(child, Gauge)
        return child

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
        **labels: str,
    ) -> Histogram:
        bounds = _validate_buckets(buckets)
        family = self._family(name, "histogram", help, bounds)
        child = family.child(_label_key(labels))
        assert isinstance(child, Histogram)
        return child

    # -- introspection -----------------------------------------------

    def families(self) -> Iterable[MetricFamily]:
        for name in sorted(self._families):
            yield self._families[name]

    def value(self, name: str, **labels: str) -> Number:
        """Read a counter/gauge value (0 if the child does not exist)."""
        family = self._families.get(name)
        if family is None:
            return 0
        metric = family.children.get(_label_key(labels))
        if metric is None or isinstance(metric, Histogram):
            return 0
        return metric.value

    def labelled_values(self, name: str, label: str) -> Dict[str, Number]:
        """Map one label's values to metric values for family ``name``.

        E.g. ``labelled_values("clog_records_total", "type")`` returns
        ``{"NEW_TUPLE": 10, ...}``.
        """
        family = self._families.get(name)
        out: Dict[str, Number] = {}
        if family is None:
            return out
        for key, metric in family.children.items():
            if isinstance(metric, Histogram):
                continue
            for k, v in key:
                if k == label:
                    out[v] = metric.value
        return out

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deep, detached copy of every metric as plain JSON-able data.

        The snapshot never aliases live metric state: mutating the
        registry after the call does not change an earlier snapshot.
        """
        counters: Dict[str, object] = {}
        gauges: Dict[str, object] = {}
        histograms: Dict[str, object] = {}
        for family in self.families():
            for metric in family.sorted_children():
                key = family.name + format_labels(metric.labels)
                if isinstance(metric, Counter):
                    counters[key] = metric.value
                elif isinstance(metric, Gauge):
                    gauges[key] = metric.value
                else:
                    histograms[key] = {
                        "count": metric.total,
                        "sum": metric.sum,
                        "buckets": dict(metric.cumulative()),
                    }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
