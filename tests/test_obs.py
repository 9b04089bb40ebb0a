"""Unit tests for the observability layer: registry, tracing, rendering."""

from __future__ import annotations

import json
import pickle
import threading

import numpy as np
import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Tracer,
    enabled,
    get_registry,
    render_snapshot,
    set_enabled,
    set_registry,
    trace_span,
    traced,
    validate_prometheus_text,
)
from repro.obs.registry import DEFAULT_TIME_BUCKETS


class TestCounter:
    def test_unlabelled_increment(self):
        counter = Counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.values() == {(): 3.5}

    def test_labelled_series_are_independent(self):
        counter = Counter("c_total")
        counter.inc(stage="a")
        counter.inc(3, stage="b")
        values = {k: v for k, v in counter.values().items()}
        assert values[(("stage", "a"),)] == 1.0
        assert values[(("stage", "b"),)] == 3.0

    def test_child_handle_shares_storage(self):
        counter = Counter("c_total")
        bound = counter.child(stage="hot")
        bound.inc()
        bound.inc(4)
        assert counter.values()[(("stage", "hot"),)] == 5.0

    def test_label_order_is_canonical(self):
        counter = Counter("c_total")
        counter.inc(b="2", a="1")
        counter.inc(a="1", b="2")
        assert len(counter.values()) == 1


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10.0)
        gauge.inc(5.0)
        assert gauge.values()[()] == 15.0
        bound = gauge.child()
        bound.dec(3.0)
        assert gauge.values()[()] == 12.0


class TestRegistryThreadSafety:
    def test_concurrent_increments_lose_nothing(self):
        """8 threads x 5000 increments each must sum exactly."""
        registry = MetricsRegistry()
        counter = registry.counter("race_total")
        bound = counter.child(worker="shared")
        n_threads, per_thread = 8, 5000

        barrier = threading.Barrier(n_threads)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                bound.inc()

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.values()[(("worker", "shared"),)] == n_threads * per_thread

    def test_concurrent_histogram_observations(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds")
        bound = hist.child()
        n_threads, per_thread = 4, 2000

        def hammer():
            for i in range(per_thread):
                bound.observe(0.001 * (i % 10 + 1))

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.stats()[""]["count"] == n_threads * per_thread


class TestHistogram:
    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=[])
        with pytest.raises(ValueError):
            Histogram("h", buckets=[1.0, 1.0])
        with pytest.raises(ValueError):
            Histogram("h", buckets=[2.0, 1.0])

    def test_quantiles_against_numpy(self):
        """Bucket-interpolated quantiles track numpy within a bucket width."""
        rng = np.random.default_rng(0)
        samples = rng.uniform(0.0003, 0.4, size=5000)
        hist = Histogram("h_seconds", buckets=DEFAULT_TIME_BUCKETS)
        for s in samples:
            hist.observe(float(s))
        buckets = np.asarray([0.0] + list(DEFAULT_TIME_BUCKETS))
        for q in (0.50, 0.95, 0.99):
            estimate = hist.quantile(q)
            exact = float(np.quantile(samples, q))
            # The estimate must land within the bucket containing the
            # exact quantile (that is all fixed buckets can promise).
            idx = int(np.searchsorted(buckets, exact))
            lo = buckets[max(idx - 1, 0)]
            hi = buckets[min(idx, len(buckets) - 1)]
            assert lo <= estimate <= hi * 1.0000001, (q, estimate, exact)

    def test_quantile_clamped_to_observed_range(self):
        hist = Histogram("h_seconds")
        for _ in range(5):
            hist.observe(0.003)
        assert hist.quantile(0.5) == pytest.approx(0.003)
        assert hist.quantile(0.99) == pytest.approx(0.003)

    def test_quantile_nan_when_empty(self):
        hist = Histogram("h_seconds")
        assert np.isnan(hist.quantile(0.5))

    def test_stats_shape(self):
        hist = Histogram("h_seconds")
        hist.observe(0.01, mode="fft")
        stats = hist.stats()['mode="fft"']
        assert stats["count"] == 1
        assert stats["sum"] == pytest.approx(0.01)
        assert stats["min"] == stats["max"] == pytest.approx(0.01)
        assert stats["buckets"][-1][0] == "+Inf"
        assert sum(c for _, c in stats["buckets"]) == 1


class TestRegistry:
    def test_instrument_creation_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(TypeError):
            registry.gauge("x_total")

    def test_snapshot_merges_collector_samples(self):
        registry = MetricsRegistry()

        class Source:
            def __init__(self, hits):
                self.hits = hits

            def collect(self):
                return [("counter", "hits_total", {"cache": "a"}, self.hits)]

        one, two = Source(3), Source(4)
        registry.register_collector(one.collect)
        registry.register_collector(two.collect)
        snap = registry.snapshot()
        assert snap["counters"]["hits_total"]['cache="a"'] == 7.0

    def test_dead_collectors_are_pruned(self):
        registry = MetricsRegistry()

        class Source:
            def collect(self):
                return [("gauge", "depth", {}, 1.0)]

        source = Source()
        registry.register_collector(source.collect)
        assert registry.snapshot()["gauges"]["depth"][""] == 1.0
        del source
        assert "depth" not in registry.snapshot().get("gauges", {})

    def test_short_lived_collectors_are_dropped_in_linear_time(self):
        # Every STS registers a collector, and serving builds a fresh
        # measure per operation: dead collectors must neither pile up nor
        # make the next registration or snapshot scan them all.
        registry = MetricsRegistry()

        class Source:
            def collect(self):
                return [("gauge", "live", {}, 1.0)]

        keep = Source()
        registry.register_collector(keep.collect)
        for _ in range(5000):
            registry.register_collector(Source().collect)
        # Dropped as their owners die, not at the next snapshot.
        assert len(registry._collectors) <= 2
        assert registry.snapshot()["gauges"]["live"][""] == 1.0

    def test_collector_of_a_new_object_counts_after_owner_death(self):
        # A new owner may reuse a dead owner's id(); it must still count.
        registry = MetricsRegistry()

        class Source:
            def collect(self):
                return [("gauge", "live", {}, 1.0)]

        for _ in range(50):
            source = Source()
            registry.register_collector(source.collect)
            registry.register_collector(source.collect)  # idempotent
            assert registry.snapshot()["gauges"]["live"][""] == 1.0
            del source

    def test_value_reads_one_metric(self):
        registry = MetricsRegistry()
        registry.counter("x_total").inc(2, kind="a")
        assert registry.value("x_total") == {'kind="a"': 2.0}
        assert registry.value("missing_total") == {}

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("x_total").inc()
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_pickles_to_empty(self):
        registry = MetricsRegistry()
        registry.counter("x_total").inc()
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestPrometheusExport:
    def test_golden_output(self):
        """Pin the exposition format for a small known registry."""
        registry = MetricsRegistry()
        registry.counter("demo_calls_total", "Calls").inc(3, method="fft")
        registry.gauge("demo_depth", "Queue depth").set(2)
        hist = registry.histogram("demo_seconds", "Latency", buckets=[0.1, 1.0])
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        expected = "\n".join(
            [
                '# HELP demo_calls_total Calls',
                '# TYPE demo_calls_total counter',
                'demo_calls_total{method="fft"} 3',
                '# HELP demo_depth Queue depth',
                '# TYPE demo_depth gauge',
                'demo_depth 2',
                '# HELP demo_seconds Latency',
                '# TYPE demo_seconds histogram',
                'demo_seconds_bucket{le="0.1"} 1',
                'demo_seconds_bucket{le="1"} 2',
                'demo_seconds_bucket{le="+Inf"} 3',
                'demo_seconds_sum 5.55',
                'demo_seconds_count 3',
            ]
        ) + "\n"
        assert registry.to_prometheus() == expected

    def test_output_validates(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "Help with spaces").inc(1, k='quote"inside')
        registry.histogram("b_seconds").observe(0.2, mode="x")
        assert validate_prometheus_text(registry.to_prometheus()) == []

    def test_validator_flags_garbage(self):
        assert validate_prometheus_text("not a metric line !!!\n")
        assert validate_prometheus_text("# TYPE x bogus_kind\n")
        dup = "# TYPE x counter\nx 1\n# TYPE x counter\nx 2\n"
        assert validate_prometheus_text(dup)

    def test_empty_registry_emits_empty_string(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestRenderSnapshot:
    def test_renders_sections(self):
        registry = MetricsRegistry()
        registry.counter("x_total").inc(2, stage="s")
        registry.gauge("g").set(1)
        registry.histogram("h_seconds").observe(0.01)
        text = render_snapshot(registry.snapshot())
        assert "counters:" in text
        assert 'stage="s"' in text
        assert "histograms:" in text

    def test_empty_snapshot(self):
        assert "no metrics" in render_snapshot({})


class TestNullRegistry:
    def test_everything_is_a_noop(self):
        registry = NullRegistry()
        registry.counter("x").inc(5, a="b")
        registry.gauge("y").set(2)
        registry.histogram("z").observe(1.0)
        registry.histogram("z").child(a="b").observe(1.0)
        registry.register_collector(lambda: [("counter", "x", {}, 1.0)])
        assert registry.snapshot() == {}
        assert registry.to_prometheus() == ""
        assert registry.enabled is False

    def test_global_switch_hands_out_null(self):
        previous = set_enabled(False)
        try:
            assert not enabled()
            assert isinstance(get_registry(), NullRegistry)
        finally:
            set_enabled(previous)
        assert isinstance(get_registry(), MetricsRegistry)


class TestTracer:
    def test_span_nesting(self):
        tracer = Tracer()
        with tracer.span("outer", run=1):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        roots = tracer.roots()
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner", "inner"]
        assert roots[0].attrs == {"run": 1}
        assert roots[0].wall_s >= sum(c.wall_s for c in roots[0].children) * 0.5

    def test_roots_bounded(self):
        tracer = Tracer(max_roots=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.roots()) == 4
        assert tracer.roots()[0].name == "s6"

    def test_clear(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.clear()
        assert tracer.roots() == []

    def test_chrome_trace_events(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child", n=3):
                pass
        events = tracer.to_chrome_trace()
        names = {e["name"] for e in events}
        assert names == {"parent", "child"}
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
        child = next(e for e in events if e["name"] == "child")
        assert child["args"]["n"] == 3
        json.dumps(events)  # must be serializable

    def test_flamegraph_merges_by_path(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("work"):
                with tracer.span("sub"):
                    pass
        text = tracer.flamegraph()
        assert "work" in text and "(x3" in text
        assert "sub" in text

    def test_flamegraph_empty(self):
        assert "no spans" in Tracer().flamegraph()

    def test_pickles_to_empty(self):
        tracer = Tracer(max_roots=7)
        with tracer.span("x"):
            pass
        clone = pickle.loads(pickle.dumps(tracer))
        assert clone.roots() == []
        with clone.span("y"):
            pass
        assert [r.name for r in clone.roots()] == ["y"]

    def test_out_of_order_exit_unwinds(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        # Close outer first (generator-teardown ordering): must not wedge.
        outer.__exit__(None, None, None)
        assert [r.name for r in tracer.roots()] == ["outer"]

    def test_trace_span_disabled_is_noop(self):
        previous = set_enabled(False)
        try:
            with trace_span("ignored") as span:
                assert span.name == ""
        finally:
            set_enabled(previous)

    def test_traced_decorator(self):
        tracer = Tracer()
        from repro.obs import set_tracer

        previous = set_tracer(tracer)
        try:

            @traced("decorated")
            def fn(x):
                return x + 1

            assert fn(1) == 2
        finally:
            set_tracer(previous)
        assert [r.name for r in tracer.roots()] == ["decorated"]


class TestRegistrySwap:
    def test_set_registry_round_trip(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous
