"""The metrics registry: families, labels, parent roll-up, expositions."""

from __future__ import annotations

import pytest

from repro.engine import EngineSession
from repro.generators import skewed_chain_database
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    global_registry,
)


class TestCounter:
    def test_counts_up_and_get_or_create_returns_the_same_series(self):
        registry = MetricsRegistry()
        registry.counter("queries").inc()
        registry.counter("queries").inc(2)
        assert registry.counter("queries").value == 3

    def test_label_sets_are_independent_series(self):
        registry = MetricsRegistry()
        registry.counter("queries", labels={"kind": "acyclic"}).inc(5)
        registry.counter("queries", labels={"kind": "cyclic"}).inc(1)
        assert registry.counter("queries",
                                labels={"kind": "acyclic"}).value == 5
        assert registry.counter("queries",
                                labels={"kind": "cyclic"}).value == 1

    def test_decrements_are_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("queries").inc(-1)


class TestGauge:
    def test_set_and_inc(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("cache_size")
        gauge.set(7)
        gauge.inc(-2)
        assert registry.gauge("cache_size").value == 5


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(5.55)
        assert histogram.cumulative_counts() == (("0.1", 1), ("1", 2),
                                                 ("+Inf", 3))

    def test_default_buckets_are_the_engine_latency_range(self):
        histogram = MetricsRegistry().histogram("latency")
        assert histogram.buckets == DEFAULT_LATENCY_BUCKETS


class TestRegistry:
    def test_kind_conflicts_raise(self):
        registry = MetricsRegistry()
        registry.counter("queries")
        with pytest.raises(ValueError):
            registry.gauge("queries")

    def test_counters_and_histograms_chain_to_the_parent(self):
        parent = MetricsRegistry()
        child = MetricsRegistry(parent=parent)
        child.counter("queries", labels={"kind": "acyclic"}).inc(3)
        child.histogram("latency").observe(0.2)
        assert parent.counter("queries",
                              labels={"kind": "acyclic"}).value == 3
        assert parent.histogram("latency").count == 1

    def test_gauges_stay_local(self):
        parent = MetricsRegistry()
        child = MetricsRegistry(parent=parent)
        child.gauge("cache_size").set(9)
        assert parent.gauge("cache_size").value == 0

    def test_snapshot_flattens_every_series(self):
        registry = MetricsRegistry()
        registry.counter("queries", labels={"kind": "acyclic"}).inc(2)
        registry.gauge("cache_size").set(4)
        registry.histogram("latency", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["queries{kind=acyclic}"] == 2
        assert snapshot["cache_size"] == 4
        assert snapshot["latency"]["count"] == 1
        assert snapshot["latency"]["buckets"] == {"1": 1, "+Inf": 1}

    def test_prometheus_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("queries", help="Queries served.",
                         labels={"kind": "acyclic"}).inc(2)
        registry.histogram("latency", buckets=(1.0,)).observe(0.5)
        text = registry.render_prometheus()
        assert "# HELP queries Queries served." in text
        assert "# TYPE queries counter" in text
        assert 'queries{kind="acyclic"} 2' in text
        assert 'latency_bucket{le="1"} 1' in text
        assert 'latency_bucket{le="+Inf"} 1' in text
        assert "latency_sum 0.5" in text
        assert "latency_count 1" in text

    def test_clear_drops_series_but_not_the_parent(self):
        parent = MetricsRegistry()
        child = MetricsRegistry(parent=parent)
        child.counter("queries").inc()
        child.clear()
        assert child.snapshot() == {}
        assert parent.counter("queries").value == 1


class TestSessionMetrics:
    def test_executions_record_into_the_session_registry(self):
        database = skewed_chain_database(3, heads=6, fanout=3,
                                         junction_values=2, seed=1)
        session = EngineSession(metrics=MetricsRegistry())
        prepared = session.prepare(database)
        prepared.execute(database)
        prepared.execute(database)
        snapshot = session.metrics.snapshot()
        assert snapshot["engine_queries_total{kind=acyclic}"] == 2
        assert snapshot["engine_query_seconds"]["count"] == 2
        assert snapshot["engine_rows_output_total"] > 0
        assert "engine_plan_cache_requests_total{outcome=hit}" in snapshot

    def test_session_registries_roll_up_to_the_process_registry(self):
        database = skewed_chain_database(3, heads=6, fanout=3,
                                         junction_values=2, seed=1)
        labels = {"kind": "acyclic"}
        before = global_registry().counter("engine_queries_total",
                                           labels=labels).value
        session = EngineSession()
        session.prepare(database).execute(database)
        after = global_registry().counter("engine_queries_total",
                                          labels=labels).value
        assert after == before + 1


class TestGaugeDec:
    def test_dec_decreases_the_value(self):
        gauge = MetricsRegistry().gauge("in_flight")
        gauge.inc(3)
        gauge.dec()
        gauge.dec(1.5)
        assert gauge.value == pytest.approx(0.5)


class TestHistogramTimer:
    def test_time_observes_the_block_wall_time(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency", buckets=(60.0,))
        with histogram.time() as timer:
            pass
        assert histogram.count == 1
        assert timer.elapsed_seconds is not None
        assert 0.0 <= timer.elapsed_seconds < 60.0
        assert histogram.sum == pytest.approx(timer.elapsed_seconds)

    def test_time_observes_even_when_the_body_raises(self):
        histogram = MetricsRegistry().histogram("latency")
        with pytest.raises(RuntimeError):
            with histogram.time():
                raise RuntimeError("the failure path's latency still counts")
        assert histogram.count == 1

    def test_timers_chain_to_the_parent_like_any_observation(self):
        parent = MetricsRegistry()
        child = MetricsRegistry(parent=parent)
        with child.histogram("latency").time():
            pass
        assert parent.histogram("latency").count == 1


class TestPrometheusEscaping:
    """Label values may contain anything — query names, error strings."""

    def test_hostile_label_values_are_escaped_per_the_spec(self):
        registry = MetricsRegistry()
        hostile = 'back\\slash "quoted"\nnewline'
        registry.counter("queries", labels={"query": hostile}).inc()
        text = registry.render_prometheus()
        # Backslash -> \\, double quote -> \", newline -> \n; the series
        # must render as exactly one line with the escaped value.
        assert ('queries{query="back\\\\slash \\"quoted\\"\\nnewline"} 1'
                in text.splitlines())

    def test_label_escaping_round_trips_backslash_before_quote(self):
        # A value ending in a backslash must not escape its closing quote.
        registry = MetricsRegistry()
        registry.counter("queries", labels={"query": 'trailing\\'}).inc()
        assert 'queries{query="trailing\\\\"} 1' in registry.render_prometheus()

    def test_help_text_escapes_backslash_and_newline(self):
        registry = MetricsRegistry()
        registry.counter("queries", help="line one\nline \\ two").inc()
        text = registry.render_prometheus()
        assert "# HELP queries line one\\nline \\\\ two" in text
        assert all("\n" not in line for line in text.splitlines())

    def test_exposition_stays_one_line_per_series(self):
        registry = MetricsRegistry()
        registry.gauge("cache", labels={"db": "a\nb"}).set(1)
        registry.gauge("cache", labels={"db": "plain"}).set(2)
        lines = [line for line in registry.render_prometheus().splitlines()
                 if line.startswith("cache{")]
        assert len(lines) == 2
