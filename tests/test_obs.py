"""Unit tests for the ``repro.obs`` observability subsystem.

Covers registry semantics (identity, idempotence, conflicts), histogram
bucketing, deterministic tracing, exporters, the ``Observability``
bundle and ``ObsConfig`` validation.
"""

import json

import pytest

from repro.common.config import ObsConfig
from repro.common.errors import ConfigError, ObsError
from repro.obs import (
    MetricsRegistry,
    Observability,
    Tracer,
    metrics_report,
    prometheus_text,
)


class TestRegistry:
    def test_counter_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert reg.value("requests_total") == 5

    def test_counter_negative_inc_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total")
        with pytest.raises(ObsError):
            c.inc(-1)
        assert c.value == 0

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7

    def test_identity_is_name_plus_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("ops_total", kind="read")
        b = reg.counter("ops_total", kind="write")
        same = reg.counter("ops_total", kind="read")
        assert a is same
        assert a is not b
        a.inc(3)
        b.inc(1)
        assert reg.value("ops_total", kind="read") == 3
        assert reg.value("ops_total", kind="write") == 1

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ObsError):
            reg.gauge("x_total")
        with pytest.raises(ObsError):
            reg.histogram("x_total", buckets=(1.0,))

    def test_histogram_boundary_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("lat_seconds", buckets=(0.1, 1.0))
        # same boundaries: fine (idempotent)
        reg.histogram("lat_seconds", buckets=(0.1, 1.0))
        with pytest.raises(ObsError):
            reg.histogram("lat_seconds", buckets=(0.5, 1.0))

    def test_bucket_validation(self):
        reg = MetricsRegistry()
        with pytest.raises(ObsError):
            reg.histogram("h", buckets=())
        with pytest.raises(ObsError):
            reg.histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ObsError):
            reg.histogram("h", buckets=(1.0, 1.0))

    def test_labelled_values(self):
        reg = MetricsRegistry()
        reg.counter("rec_total", type="NEW_TUPLE").inc(7)
        reg.counter("rec_total", type="ABORT").inc(2)
        assert reg.labelled_values("rec_total", "type") == {
            "NEW_TUPLE": 7, "ABORT": 2}
        assert reg.labelled_values("missing", "type") == {}

    def test_value_of_unknown_metric_is_zero(self):
        reg = MetricsRegistry()
        assert reg.value("never_registered") == 0

    def test_snapshot_is_detached(self):
        reg = MetricsRegistry()
        c = reg.counter("n_total")
        h = reg.histogram("h_seconds", buckets=(1.0,))
        c.inc()
        h.observe(0.5)
        snap = reg.snapshot()
        c.inc(10)
        h.observe(0.5)
        assert snap["counters"]["n_total"] == 1
        assert snap["histograms"]["h_seconds"]["count"] == 1
        # and it is plain JSON-able data
        json.dumps(snap)


class TestHistogram:
    def test_le_is_inclusive_with_inf_overflow(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 5.0))
        h.observe(1.0)    # lands in le=1.0 (inclusive upper bound)
        h.observe(1.5)    # le=5.0
        h.observe(99.0)   # +Inf
        cum = dict(h.cumulative())
        assert cum["1.0"] == 1
        assert cum["5.0"] == 2
        assert cum["+Inf"] == 3
        assert h.total == 3
        assert h.sum == pytest.approx(101.5)


class TestTracer:
    def test_nesting_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        spans = {s["name"]: s for s in tracer.finished()}
        assert spans["outer"]["parent_id"] == 0
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]

    def test_two_identical_runs_produce_identical_traces(self):
        def run():
            tracer = Tracer()
            with tracer.span("a", n=1):
                with tracer.span("b"):
                    pass
                tracer.event("mark", ok=True)
            return tracer.finished()

        assert run() == run()

    def test_injected_clock_stamps_spans(self):
        ticks = iter([100, 200, 300, 400])
        tracer = Tracer(now=lambda: next(ticks))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = {s["name"]: s for s in tracer.finished()}
        assert spans["outer"]["start"] == 100
        assert spans["inner"]["start"] == 200
        assert spans["inner"]["end"] == 300
        assert spans["outer"]["end"] == 400

    def test_ring_buffer_drops_oldest_and_counts(self):
        tracer = Tracer(capacity=2)
        for name in ("a", "b", "c"):
            tracer.event(name)
        assert tracer.dropped == 1
        assert [s["name"] for s in tracer.finished()] == ["b", "c"]

    def test_span_counts_sorted(self):
        tracer = Tracer()
        tracer.event("z")
        tracer.event("a")
        tracer.event("a")
        assert list(tracer.span_counts().items()) == [("a", 2), ("z", 1)]

    def test_set_attributes_and_reset(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.set(rows=3, ok=True)
        (finished,) = tracer.finished()
        assert finished["attrs"] == {"rows": 3, "ok": True}
        tracer.reset()
        assert tracer.finished() == []
        assert tracer.dropped == 0
        assert tracer.span("fresh").span_id == 1


class TestExport:
    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("n_total", help="things", kind="a").inc(2)
        reg.gauge("depth").set(4)
        reg.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        text = prometheus_text(reg)
        assert "# HELP n_total things" in text
        assert "# TYPE n_total counter" in text
        assert 'n_total{kind="a"} 2' in text
        assert "# TYPE depth gauge" in text
        assert "depth 4" in text
        assert "# TYPE h_seconds histogram" in text
        assert 'h_seconds_bucket{le="1.0"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_sum 0.5" in text
        assert "h_seconds_count 1" in text
        assert text.endswith("\n")

    def test_prometheus_text_is_byte_stable(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b_total").inc()
            reg.counter("a_total", x="2").inc()
            reg.counter("a_total", x="1").inc()
            return prometheus_text(reg)

        text = build()
        assert text == build()
        # families and children sorted
        assert text.index("a_total") < text.index("b_total")
        assert text.index('x="1"') < text.index('x="2"')

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_metrics_report_includes_spans(self):
        reg = MetricsRegistry()
        reg.counter("n_total").inc()
        tracer = Tracer(capacity=1)
        tracer.event("a")
        tracer.event("a")
        report = metrics_report(reg, tracer)
        assert report["counters"] == {"n_total": 1}
        assert report["spans"] == {"a": 1}
        assert report["spans_dropped"] == 1
        assert "spans" not in metrics_report(reg)


class TestObservability:
    def test_default_bundle_is_live(self):
        obs = Observability()
        obs.registry.counter("n_total").inc()
        assert obs.registry.value("n_total") == 1

    def test_from_config_uses_injected_now(self):
        config = ObsConfig(trace_capacity=7)
        obs = Observability.from_config(config, now=lambda: 42)
        assert obs.tracer.capacity == 7
        obs.tracer.event("tick")
        assert obs.tracer.finished()[0]["start"] == 42


class TestObsConfig:
    def test_defaults_validate(self):
        ObsConfig().validate()

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigError):
            ObsConfig(trace_capacity=-1).validate()
