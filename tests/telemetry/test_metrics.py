"""The metrics registry: families, labels, expositions, per-execution writes."""

from __future__ import annotations

import pytest

from repro.engine import EngineSession
from repro.engine.planner import QueryPlanner
from repro.generators import (
    generate_database,
    skewed_chain_database,
    triangle_core_chain,
)
from repro.relational import DatabaseSchema
from repro.telemetry import DEFAULT_LATENCY_BUCKETS, MetricsRegistry


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

    def test_a_nan_increment_is_rejected_and_the_counter_keeps_counting(self):
        counter = MetricsRegistry().counter("queries")
        counter.inc(2)
        with pytest.raises(ValueError):
            counter.inc(float("nan"))
        counter.inc()
        assert counter.value == 3

    def test_an_infinite_increment_is_rejected_and_the_counter_stays_finite(self):
        registry = MetricsRegistry()
        counter = registry.counter("queries")
        with pytest.raises(ValueError):
            counter.inc(float("inf"))
        counter.inc(5)
        assert counter.value == 5
        assert "queries 5" in registry.render_prometheus().splitlines()


class TestPublish:
    def test_a_republished_family_holds_the_latest_values(self):
        registry = MetricsRegistry()
        registry.publish("cache_size", "gauge", "", [({}, 7)])
        registry.publish("cache_size", "gauge", "", [({}, 5)])
        assert registry.snapshot() == {"cache_size": 5}
        assert "# TYPE cache_size gauge" in registry.render_prometheus()

    def test_a_published_counter_renders_like_a_session_counter(self):
        published, written = MetricsRegistry(), MetricsRegistry()
        published.publish("hits_total", "counter", "Hits.",
                          [({"cache": "planner"}, 1_234_567)])
        written.counter("hits_total", "Hits.",
                        labels={"cache": "planner"}).inc(1_234_567)
        assert published.render_prometheus() == written.render_prometheus()
        assert "# TYPE hits_total counter" in published.render_prometheus()

    def test_only_counters_and_gauges_are_published(self):
        with pytest.raises(ValueError):
            MetricsRegistry().publish("latency", "histogram", "", [])


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(5.55)
        assert registry.snapshot()["latency"]["buckets"] == {
            "0.1": 1, "1": 2, "+Inf": 3}

    def test_default_buckets_are_the_engine_latency_range(self):
        histogram = MetricsRegistry().histogram("latency")
        assert histogram.buckets == DEFAULT_LATENCY_BUCKETS

    def test_a_nan_observation_is_rejected_and_lands_in_no_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency", buckets=(0.1, 1.0))
        histogram.observe(0.5)
        with pytest.raises(ValueError):
            histogram.observe(float("nan"))
        assert histogram.count == 1 and histogram.sum == 0.5
        assert registry.snapshot()["latency"]["buckets"] == {
            "0.1": 0, "1": 1, "+Inf": 1}
        assert "latency_sum 0.5" in registry.render_prometheus().splitlines()

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_an_infinite_observation_is_rejected_and_the_sum_stays_finite(self,
                                                                          value):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency", buckets=(0.1, 1.0))
        with pytest.raises(ValueError):
            histogram.observe(value)
        histogram.observe(0.5)
        assert histogram.count == 1 and histogram.sum == 0.5
        assert registry.snapshot()["latency"]["buckets"] == {
            "0.1": 0, "1": 1, "+Inf": 1}
        assert "latency_sum 0.5" in registry.render_prometheus().splitlines()


class TestRegistry:
    def test_kind_conflicts_raise(self):
        registry = MetricsRegistry()
        registry.counter("queries")
        with pytest.raises(ValueError):
            registry.publish("queries", "gauge", "", [])

    def test_snapshot_flattens_every_series(self):
        registry = MetricsRegistry()
        registry.counter("queries", labels={"kind": "acyclic"}).inc(2)
        registry.publish("cache_size", "gauge", "", [({}, 4)])
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

    def test_clear_drops_every_series(self):
        registry = MetricsRegistry()
        registry.counter("queries").inc()
        registry.publish("cache_size", "gauge", "", [({}, 3)])
        registry.clear()
        assert registry.snapshot() == {}
        assert registry.render_prometheus() == ""
        assert registry.counter("queries").value == 0

    def test_publish_keeps_exactly_the_given_series(self):
        registry = MetricsRegistry()
        registry.publish("rows", "gauge", "Rows.", [({"db": "a"}, 1),
                                                    ({"db": "b"}, 2)])
        registry.publish("rows", "gauge", "Rows.", [({"db": "b"}, 5)])
        assert registry.snapshot() == {"rows{db=b}": 5}
        registry.publish("rows", "gauge", "Rows.", [])
        assert registry.snapshot() == {}
        registry.counter("queries_total")
        with pytest.raises(ValueError):
            registry.publish("queries_total", "gauge", "", [])


class TestExportedValues:
    """Values print losslessly: integers whole, other floats round-trip."""

    def test_a_large_counter_prints_every_digit(self):
        registry = MetricsRegistry()
        registry.counter("engine_rows_output_total").inc(1_234_567)
        assert "engine_rows_output_total 1234567" in \
            registry.render_prometheus().splitlines()

    def test_a_histogram_sum_round_trips_through_float(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency", buckets=(1.0,))
        for value in (1234.5678, 0.1, 0.2):
            histogram.observe(value)
        (line,) = [line for line in registry.render_prometheus().splitlines()
                   if line.startswith("latency_sum ")]
        assert float(line.split()[1]) == histogram.sum

    def test_special_values_use_the_text_format_spelling(self):
        registry = MetricsRegistry()
        for name, value in (("up", float("inf")), ("down", float("-inf")),
                            ("unknown", float("nan")), ("ratio", 0.25)):
            registry.publish(name, "gauge", "", [({}, value)])
        lines = registry.render_prometheus().splitlines()
        for expected in ("up +Inf", "down -Inf", "unknown NaN", "ratio 0.25"):
            assert expected in lines

    def test_default_bucket_labels_are_unchanged(self):
        registry = MetricsRegistry()
        registry.histogram("latency")
        labels = list(registry.snapshot()["latency"]["buckets"])
        assert labels == ["0.0001", "0.00025", "0.0005", "0.001", "0.0025",
                          "0.005", "0.01", "0.025", "0.05", "0.1", "0.25",
                          "0.5", "1", "2.5", "5", "+Inf"]


class TestSessionMetrics:
    def test_executions_record_into_the_session_registry(self):
        database = skewed_chain_database(3, heads=6, fanout=3,
                                         junction_values=2, seed=1)
        session = EngineSession(metrics=MetricsRegistry(), monitor=True)
        prepared = session.prepare(database)
        prepared.execute(database)
        planned = session.monitor.collect()
        prepared.execute(database)
        snapshot = session.metrics.snapshot()
        assert snapshot["engine_queries_total{kind=acyclic}"] == 2
        assert snapshot["engine_query_seconds"]["count"] == 2
        assert snapshot["engine_rows_output_total"] > 0
        # Plan-cache outcomes are the planner's own lookups, published at
        # the scrape: the prepare planned (a miss), a warm execute looks up
        # nothing.
        assert not any(key.startswith("engine_plan_cache_requests_total")
                       for key in snapshot)
        collected = session.monitor.collect()
        planner = dict(session.cache_reports())["planner"]
        for outcome in ("hits", "misses"):
            key = f"engine_cache_{outcome}_total{{cache=planner}}"
            assert collected[key] == planned[key] == planner[outcome]
        assert planner["misses"] >= 1

    @staticmethod
    def _databases():
        chain = skewed_chain_database(3, heads=6, fanout=3,
                                      junction_values=2, seed=1)
        triangles = generate_database(
            DatabaseSchema.from_hypergraph(triangle_core_chain(2)),
            universe_rows=60, domain_size=8, dangling_fraction=0.3, seed=2)
        return {"acyclic": chain, "cyclic": triangles}

    def test_one_execute_counts_once_and_sets_no_gauge(self):
        for kind, database in self._databases().items():
            session = EngineSession(metrics=MetricsRegistry())
            prepared = session.prepare(database)
            assert prepared.kind == kind
            prepared.execute(database)
            before = session.metrics.snapshot()
            prepared.execute(database)
            after = session.metrics.snapshot()
            key = f"engine_queries_total{{kind={kind}}}"
            assert after[key] == before[key] + 1
            assert after["engine_query_seconds"]["count"] == \
                before["engine_query_seconds"]["count"] + 1
            families = session.metrics.render_prometheus()
            assert "gauge" not in {line.split()[3] for line in
                                   families.splitlines()
                                   if line.startswith("# TYPE ")}

    def test_warm_executes_never_read_the_planner_cache(self, monkeypatch):
        databases = self._databases()
        session = EngineSession(metrics=MetricsRegistry())
        prepared = {kind: session.prepare(database)
                    for kind, database in databases.items()}
        for kind, database in databases.items():
            prepared[kind].execute(database)

        def refuse(self):
            raise AssertionError("an execute read the planner cache")

        monkeypatch.setattr(QueryPlanner, "cache_info", refuse)
        for kind, database in databases.items():
            expected = prepared[kind].execute(database).relation
            assert prepared[kind].execute(database).relation == expected
        assert session.metrics.counter(
            "engine_queries_total", labels={"kind": "cyclic"}).value == 3


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
        registry.publish("cache", "gauge", "", [({"db": "a\nb"}, 1),
                                                ({"db": "plain"}, 2)])
        lines = [line for line in registry.render_prometheus().splitlines()
                 if line.startswith("cache{")]
        assert len(lines) == 2
