"""The operational monitoring subsystem: query log, history, cache metrics.

Covers the ring buffer's bounds and bookkeeping, the rolling-history
percentiles, slow-query trace retention (arm on the offending run, capture
on the next), error capture including bindings that fail before the engine
runs, the cache collector's counters and gauges (the interner's size, the
cells it resolved under its lock, the key rows that overflowed the packing
radix, the labelled cache report with the result and payload memos' hits
among them, the selection keys a warm run reuses; every count typed a
counter that no clear decreases), and the whole stack under concurrent
``execute_many`` traffic
from multiple threads.  The HTTP routes that serve the monitor are the query
service's, tested in ``tests/service/test_server.py``.
"""

from __future__ import annotations

import gc
import json
import threading

import pytest

from repro.engine import EngineSession
from repro.engine.columnar import (
    ColumnBlock,
    clear_column_caches,
    column_cache_info,
    current_interner,
    natural_join_blocks,
)
from repro.exceptions import SchemaError
from repro.generators import (
    generate_database,
    skewed_chain_database,
    skewed_chain_endpoints,
    triangle_core_chain,
)
from repro.relational import Database, DatabaseSchema, Relation, RelationSchema, Row
from repro.telemetry import (
    MonitorConfig,
    QueryLog,
    QueryLogEntry,
    QueryLogValidationError,
    SessionMonitor,
    Tracer,
    rolling_history,
    use_tracer,
    validate_query_log,
)
from repro.telemetry import monitor as monitor_module

from properties.strategies import rebound

CHAIN = 4


def chain_db(seed: int = 0):
    return skewed_chain_database(CHAIN, heads=4, fanout=3,
                                 junction_values=2, seed=seed)


def benchmark_shapes():
    """The repository benchmark's two large queries, one dangling row per relation.

    Each dangling row's values occur nowhere else, so the reducer's steps
    filter (and select) instead of all being fixpoints.
    """
    chain = skewed_chain_database(8, heads=200, fanout=50, junction_values=4,
                                  seed=1)
    triangles = generate_database(
        DatabaseSchema.from_hypergraph(triangle_core_chain(4)),
        universe_rows=2000, domain_size=40, dangling_fraction=0.5, seed=4)
    shapes = []
    for database, outputs in ((chain, skewed_chain_endpoints(8)),
                              (triangles, ("C0", "C5"))):
        relations = {}
        for relation in database.relations():
            dangling = Row({attribute: f"dangling-{relation.name}-{attribute}"
                            for attribute in relation.schema.attributes})
            relations[relation.name] = Relation.from_valid_rows(
                relation.schema, relation.rows | {dangling})
        shapes.append((Database(database.schema, relations), outputs))
    return shapes


def monitored_session(**config) -> EngineSession:
    return EngineSession(monitor=MonitorConfig(**config))


# --------------------------------------------------------------------------- #
# The ring buffer
# --------------------------------------------------------------------------- #
class TestQueryLog:
    def test_capacity_bounds_retention_and_counts_drops(self):
        log = QueryLog(capacity=3)
        for index in range(5):
            log.append(query=f"q{index}", fingerprint="f", kind="acyclic",
                       database="db0")
        assert len(log) == 3
        assert log.total_recorded == 5
        assert log.dropped == 2
        assert [entry.query for entry in log.entries()] == ["q2", "q3", "q4"]

    def test_sequence_numbers_are_monotonic_and_survive_clear(self):
        log = QueryLog(capacity=4)
        log.append(query="a", fingerprint="f", kind="acyclic", database="-")
        log.append(query="b", fingerprint="f", kind="acyclic", database="-")
        log.clear()
        entry = log.append(query="c", fingerprint="f", kind="acyclic",
                           database="-")
        assert entry.seq == 3
        assert log.total_recorded == 3

    def test_entries_filter_by_query_and_limit_keeps_newest(self):
        log = QueryLog(capacity=8)
        for index in range(6):
            log.append(query="even" if index % 2 == 0 else "odd",
                       fingerprint="f", kind="acyclic", database="-")
        evens = log.entries(query="even")
        assert [entry.seq for entry in evens] == [1, 3, 5]
        assert [entry.seq for entry in log.entries(limit=2)] == [5, 6]

    def test_error_and_slow_views(self):
        log = QueryLog(capacity=8)
        log.append(query="ok", fingerprint="f", kind="acyclic", database="-")
        log.append(query="bad", fingerprint="f", kind="acyclic", database="-",
                   error="SchemaError: nope")
        log.append(query="slow", fingerprint="f", kind="acyclic",
                   database="-", slow=True)
        assert [entry.query for entry in log.errors()] == ["bad"]
        assert [entry.query for entry in log.slow_entries()] == ["slow"]
        assert not log.errors()[0].ok

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryLog(capacity=0)

    def test_entry_derives_fields_from_statistics_lazily(self):
        class Stats:
            phase_times = (("reduce", 0.001),)
            input_sizes = (3, 4)
            output_size = 7
            plan_cache_hit = True
            adaptive = True
            estimated_output_size = 9

        entry = QueryLogEntry("q", "f", "acyclic", "db0",
                              elapsed_seconds=0.5, statistics=Stats())
        assert entry.input_rows == 7
        assert entry.output_rows == 7
        assert entry.plan_cache_hit
        assert entry.estimated_output_rows == 9
        assert entry.to_dict()["phase_times"] == [["reduce", 0.001]]

    def test_errored_entries_report_empty_defaults(self):
        entry = QueryLogEntry("q", "f", "acyclic", "db0", error="boom")
        assert entry.output_rows == 0
        assert not entry.plan_cache_hit
        assert entry.to_dict()["error"] == "boom"
        assert entry.to_dict()["traced"] is False


# --------------------------------------------------------------------------- #
# Rolling history
# --------------------------------------------------------------------------- #
def history_entry(query: str, ts: float, elapsed: float,
                  error: str = None, slow: bool = False) -> QueryLogEntry:
    return QueryLogEntry(query, "f", "acyclic", "db0",
                         elapsed_seconds=elapsed, error=error, slow=slow,
                         ts=ts)


class TestRollingHistory:
    def test_percentiles_qps_and_error_counts(self):
        now = 1000.0
        entries = [history_entry("q", now - index, 0.010 * (index + 1))
                   for index in range(10)]
        entries.append(history_entry("q", now - 1, 9.9, error="boom"))
        (history,) = rolling_history(entries, window_seconds=60.0, now=now)
        assert history.runs == 11
        assert history.errors == 1
        assert history.qps == pytest.approx(11 / 60.0)
        # Errored runs are excluded from the latency distribution.
        assert history.max_seconds == pytest.approx(0.100)
        assert history.p50_seconds == pytest.approx(0.055)
        assert history.p99_seconds <= 0.100
        assert history.mean_seconds == pytest.approx(0.055)

    def test_entries_outside_the_window_are_ignored(self):
        now = 1000.0
        entries = [history_entry("q", now - 500, 1.0),
                   history_entry("q", now - 5, 0.010)]
        (history,) = rolling_history(entries, window_seconds=60.0, now=now)
        assert history.runs == 1
        assert history.max_seconds == pytest.approx(0.010)

    def test_queries_are_separated_and_name_sorted(self):
        now = 1000.0
        entries = [history_entry("zeta", now, 0.010),
                   history_entry("alpha", now, 0.020),
                   history_entry("zeta", now, 0.030, slow=True)]
        histories = rolling_history(entries, window_seconds=60.0, now=now)
        assert [history.query for history in histories] == ["alpha", "zeta"]
        assert histories[1].runs == 2
        assert histories[1].slow_runs == 1

    def test_single_sample_percentiles_collapse_to_it(self):
        (history,) = rolling_history([history_entry("q", 10.0, 0.042)],
                                     window_seconds=60.0, now=10.0)
        assert history.p50_seconds == history.p99_seconds == \
            pytest.approx(0.042)


# --------------------------------------------------------------------------- #
# Session integration
# --------------------------------------------------------------------------- #
class TestSessionIntegration:
    def test_every_execution_lands_in_the_log(self):
        databases = [chain_db(seed) for seed in range(2)]
        session = monitored_session()
        prepared = session.prepare(databases[0],
                                   skewed_chain_endpoints(CHAIN),
                                   name="endpoints")
        prepared.execute_many(databases)
        prepared.execute_many(databases)
        entries = session.monitor.log.entries()
        assert len(entries) == 4
        assert {entry.query for entry in entries} == {"endpoints"}
        assert {entry.database for entry in entries} == {"db0", "db1"}
        assert all(entry.kind == "acyclic" for entry in entries)
        assert all(entry.fingerprint for entry in entries)
        # The second batch serves from the prepared plan.
        assert entries[-1].plan_cache_hit

    def test_monitor_true_and_config_and_ready_monitor_all_bind(self):
        database = chain_db()
        assert EngineSession().monitor is None
        assert EngineSession(monitor=False).monitor is None
        assert isinstance(EngineSession(monitor=True).monitor,
                          SessionMonitor)
        session = EngineSession(monitor=MonitorConfig(log_capacity=7))
        assert session.monitor.log.capacity == 7
        ready = SessionMonitor(MonitorConfig(log_capacity=9))
        assert EngineSession(monitor=ready).monitor is ready
        with pytest.raises(TypeError):
            EngineSession(monitor="yes")
        del database

    def test_a_monitor_binds_to_exactly_one_session(self):
        monitor = SessionMonitor()
        first = EngineSession(monitor=monitor)
        with pytest.raises(ValueError):
            EngineSession(monitor=monitor)
        assert first.monitor is monitor

    def test_detach_and_reattach_preserves_the_log(self):
        database = chain_db()
        session = monitored_session()
        monitor = session.monitor
        prepared = session.prepare(database, skewed_chain_endpoints(CHAIN))
        prepared.execute(database)
        session.monitor = None
        prepared.execute(database)          # unmonitored run
        session.monitor = monitor
        prepared.execute(database)
        assert session.monitor is monitor
        assert monitor.log.total_recorded == 2

    def test_errors_are_recorded_and_reraised(self):
        database = chain_db()
        session = monitored_session()
        prepared = session.prepare(database, skewed_chain_endpoints(CHAIN),
                                   name="endpoints")
        prepared.execute(database)
        with pytest.raises(SchemaError):
            # A database of a different schema fails binding resolution
            # before the engine runs; the log still gets the entry.
            prepared.execute(skewed_chain_database(CHAIN + 1))
        (entry,) = session.monitor.log.errors()
        assert entry.query == "endpoints"
        assert "SchemaError" in entry.error
        assert not entry.ok
        counter = session.metrics.counter("engine_query_errors_total",
                                          labels={"kind": "acyclic"})
        assert counter.value == 1

    def test_slow_runs_arm_tracing_and_the_next_run_retains_a_trace(self):
        database = chain_db()
        session = monitored_session(slow_query_seconds=0.0)
        prepared = session.prepare(database, skewed_chain_endpoints(CHAIN),
                                   name="endpoints")
        prepared.execute(database)          # slow, untraced -> arms capture
        prepared.execute(database)          # runs traced -> trace retained
        first, second = session.monitor.log.entries()
        assert first.slow and first.trace is None
        assert second.slow and second.trace is not None
        span_names = {record["name"] for record in second.trace}
        assert "execute" in span_names
        assert session.metrics.counter("engine_slow_queries_total").value == 2
        # Retention disarms the query: steady state does not re-trace until
        # another slow untraced run arms it again.
        assert session.monitor.wants_trace("endpoints") is False

    def test_fast_runs_never_trace(self):
        database = chain_db()
        session = monitored_session(slow_query_seconds=10.0)
        prepared = session.prepare(database, skewed_chain_endpoints(CHAIN))
        prepared.execute(database)
        prepared.execute(database)
        entries = session.monitor.log.entries()
        assert all(not entry.slow and entry.trace is None
                   for entry in entries)

    def test_database_labels_are_stable_per_instance(self):
        databases = [chain_db(seed) for seed in range(2)]
        session = monitored_session()
        prepared = session.prepare(databases[0],
                                   skewed_chain_endpoints(CHAIN))
        for _ in range(2):
            for database in databases:
                prepared.execute(database)
        labels = [entry.database for entry in session.monitor.log.entries()]
        assert labels == ["db0", "db1", "db0", "db1"]


# --------------------------------------------------------------------------- #
# The cache/resource collector
# --------------------------------------------------------------------------- #
class TestCollector:
    def test_collect_polls_caches_and_catalog_sizes_into_gauges(self):
        database = chain_db()
        session = monitored_session()
        prepared = session.prepare(database, skewed_chain_endpoints(CHAIN))
        prepared.execute(database)
        values = session.monitor.collect()
        assert values["engine_cache_entries{cache=planner}"] >= 1
        assert values["engine_cache_entries{cache=prepared}"] == 1
        assert values["engine_querylog_entries"] == 1
        assert values["engine_database_relations{database=db0}"] == CHAIN
        assert values["engine_database_rows{database=db0}"] > 0
        snapshot = session.metrics.snapshot()
        assert snapshot["engine_cache_entries{cache=planner}"] == \
            values["engine_cache_entries{cache=planner}"]
        assert snapshot["engine_database_rows{database=db0}"] == \
            values["engine_database_rows{database=db0}"]

    def test_collect_exports_the_result_memo_and_the_decode_span_reports_it(self):
        database = chain_db()
        clear_column_caches()
        try:
            session = EngineSession(monitor=MonitorConfig())
            prepared = session.prepare(database, skewed_chain_endpoints(CHAIN))
            hits, misses = ("engine_cache_hits_total{cache=result_memo}",
                            "engine_cache_misses_total{cache=result_memo}")
            before = session.monitor.collect()
            start = column_cache_info()
            assert (before[misses], before[hits]) == \
                (start["relation_misses"], start["relation_hits"])
            tracer = Tracer()
            with use_tracer(tracer):
                first = prepared.execute(database).relation
                # A new binding over the same relations decodes through the
                # result memo; a warm execute is served by its binding and
                # decodes nothing.
                second = prepared.execute(rebound(database)).relation
                served = prepared.execute(database)
                third = served.relation
            assert first is second is third
            assert served.statistics.served
            values = session.monitor.collect()
            assert values[misses] == before[misses] + 1
            assert values[hits] == before[hits] + 1
            info = column_cache_info()
            assert (info["relation_misses"] - start["relation_misses"],
                    info["relation_hits"] - start["relation_hits"]) == (1, 1)
            decodes = [record["attributes"] for record in tracer.records
                       if record["name"] == "decode"]
            assert [span["memo_hit"] for span in decodes] == [False, True]
            assert [span["output_rows"] for span in decodes] == [len(first)] * 2
        finally:
            clear_column_caches()

    def test_collect_exports_the_binding_outcome_memo(self):
        database = chain_db()
        session = EngineSession(monitor=MonitorConfig())
        prepared = session.prepare(database, skewed_chain_endpoints(CHAIN))
        hits, misses = ("engine_cache_hits_total{cache=binding_outcome}",
                        "engine_cache_misses_total{cache=binding_outcome}")
        before = session.monitor.collect()
        start = column_cache_info()
        assert (before[hits], before[misses]) == \
            (start["binding_outcome_hits"], start["binding_outcome_misses"])
        tracer = Tracer()
        with use_tracer(tracer):
            first = prepared.execute(database)      # binds and runs: a miss
            warm = [prepared.execute(database) for _ in range(3)]  # served
        values = session.monitor.collect()
        assert (values[hits] - before[hits], values[misses] - before[misses]) == \
            (3, 1)
        info = column_cache_info()
        assert (info["binding_outcome_hits"], info["binding_outcome_misses"]) == \
            (values[hits], values[misses])
        assert all(result.relation is first.relation for result in warm)
        prepares = [record["attributes"]["cached"] for record in tracer.records
                    if record["name"] == "prepare"]
        assert prepares == [False, True, True, True]
        # A never-seen database binds anew, and misses.
        prepared.execute(chain_db(seed=1))
        assert session.monitor.collect()[misses] == values[misses] + 1
        assert "engine_cache_hits_total{cache=\"binding_outcome\"}" in \
            session.metrics.render_prometheus()

    def test_collect_exports_the_payload_memo_and_the_payload_span_reports_it(
            self):
        from repro.service import QueryService

        clear_column_caches()
        service = QueryService(EngineSession(monitor=MonitorConfig()),
                               databases={"db": chain_db()})
        try:
            def call(method, **params):
                status, envelope = service.handle(
                    {"version": 1, "method": method, "client": "c", "id": "r",
                     "params": params})
                assert status == 200, envelope
                return envelope["result"]

            outputs = [str(attribute)
                       for attribute in skewed_chain_endpoints(CHAIN)]
            handle = call("prepare", database="db", outputs=outputs)["query"]
            monitor = service.session.monitor
            hits, misses = ("engine_cache_hits_total{cache=payload_memo}",
                            "engine_cache_misses_total{cache=payload_memo}")
            before = monitor.collect()
            start = column_cache_info()
            assert (before[misses], before[hits]) == \
                (start["payload_misses"], start["payload_hits"])
            tracer = Tracer()
            with use_tracer(tracer):
                first = call("execute", query=handle, database="db")
                second = call("execute", query=handle, database="db")
            assert first["relation"]["rows"] is second["relation"]["rows"]
            values = monitor.collect()
            assert values[misses] == before[misses] + 1
            assert values[hits] == before[hits] + 1
            info = column_cache_info()
            assert (info["payload_misses"] - start["payload_misses"],
                    info["payload_hits"] - start["payload_hits"]) == (1, 1)
            payloads = [record["attributes"] for record in tracer.records
                        if record["name"] == "payload"]
            assert [span["memo_hit"] for span in payloads] == [False, True]
            assert [span["rows"] for span in payloads] == \
                [first["row_count"]] * 2
        finally:
            service.pool.shutdown(wait=True)
            clear_column_caches()

    def test_collect_exports_the_selection_keys_a_warm_run_reuses(self):
        clear_column_caches()
        try:
            session = EngineSession(monitor=MonitorConfig())
            monitor = session.monitor
            name = "engine_selection_keys_built_total"
            assert monitor.collect()[name] == column_cache_info()["selection_keys"]
            for database, outputs in benchmark_shapes():
                prepared = session.prepare(database, outputs)
                before = monitor.collect()[name]
                tracer = Tracer()
                with use_tracer(tracer):
                    prepared.execute(database)
                built = monitor.collect()[name] - before
                steps = sum(record["name"].startswith("kernel:")
                            for record in tracer.records)
                assert 0 < built <= steps
                for _ in range(3):
                    prepared.execute(database)
                    values = monitor.collect()
                    assert values[name] == before + built
            assert values[name] == column_cache_info()["selection_keys"]
        finally:
            clear_column_caches()

    def test_collect_exports_the_fold_programs_a_binding_compiles(self):
        clear_column_caches()
        try:
            session = EngineSession(monitor=MonitorConfig())
            monitor = session.monitor

            def compiled() -> float:
                return monitor.collect()["engine_fold_programs_compiled_total"]

            assert compiled() == column_cache_info()["fold_programs"]
            for database, outputs in benchmark_shapes():
                prepared = session.prepare(database, outputs)
                # One plan (the binding's annotation) and one output set.
                before = compiled()
                prepared.execute(database)
                assert compiled() == before + 1
                for _ in range(3):
                    prepared.execute(database)
                    assert compiled() == before + 1
                # A never-seen copy is a new binding with its own annotated
                # plan: at most one more program, then warm again.
                copy = Database(database.schema, {
                    relation.name: Relation.from_valid_rows(relation.schema,
                                                            relation.rows)
                    for relation in database.relations()})
                prepared.execute(copy)
                after = compiled()
                assert before + 1 <= after <= before + 2
                prepared.execute(copy)
                prepared.execute(database)
                assert compiled() == after
            assert compiled() == column_cache_info()["fold_programs"]
        finally:
            clear_column_caches()

    def test_blocks_gauge_reads_the_block_cache_size(self):
        clear_column_caches()
        try:
            database = chain_db()
            session = monitored_session()
            session.prepare(database, skewed_chain_endpoints(CHAIN)).execute(
                database)
            values = session.monitor.collect()
            assert values["engine_cache_entries{cache=column_block}"] == \
                column_cache_info()["relations"] == CHAIN
            assert session.metrics.snapshot()[
                "engine_cache_entries{cache=column_block}"] == CHAIN
        finally:
            clear_column_caches()

    def test_per_database_series_leave_with_their_databases(self):
        session = monitored_session()
        original = chain_db()
        prepared = session.prepare(original, skewed_chain_endpoints(CHAIN))

        def database_series():
            return [line for line in session.metrics.render_prometheus()
                    .splitlines() if line.startswith(("engine_database_rows{",
                                                      "engine_database_relations{"))]

        copies = []
        for _ in range(5):
            copy = Database(original.schema, {
                relation.name: Relation.from_valid_rows(relation.schema,
                                                        relation.rows)
                for relation in original.relations()})
            prepared.execute(copy)
            copies.append(copy)
            session.monitor.collect()
        assert len(database_series()) == 2 * 5
        del copy
        copies.clear()
        gc.collect()
        values = session.monitor.collect()
        assert len(database_series()) == 0
        assert not any(name.startswith("engine_database_") for name in values)
        prepared.execute(original)
        gc.collect()
        session.monitor.collect()
        assert database_series() == [
            f"engine_database_relations{{database=\"db5\"}} {CHAIN}",
            f"engine_database_rows{{database=\"db5\"}} "
            f"{sum(len(relation) for relation in original.relations())}"]

    def test_collect_exports_interner_size_and_key_overflow_rows(self):
        # Kernels on hand-built blocks: the counters sit below the session.
        def block(name, payload, values, width):
            attributes = tuple(f"K{index}" for index in range(width)) + (payload,)
            return ColumnBlock.from_columns(
                name, attributes, {attribute: values for attribute in attributes})

        clear_column_caches()
        try:
            monitor = monitored_session().monitor
            overflow = "engine_key_overflow_rows_total"
            start = monitor.collect()[overflow]
            joined = natural_join_blocks(block("left", "L", ["a", "b", "c"], 2),
                                         block("right", "R", ["b", "c", "d"], 2))
            assert len(joined) == 2
            values = monitor.collect()
            assert values[overflow] == start
            assert values["engine_interner_values"] == len(current_interner()) == 4
            # Push the next ids past the width-4 radix (55 103): every key row
            # of the wide join below interns its id tuple instead of packing.
            current_interner().encode(range(60_000))
            joined = natural_join_blocks(block("left", "L", ["p", "q", "r"], 4),
                                         block("right", "R", ["q", "r", "s"], 4))
            assert sorted(joined.iter_rows()) == [("q",) * 6, ("r",) * 6]
            values = monitor.collect()
            assert values[overflow] == start + 6
            assert values[overflow] == column_cache_info()["key_overflow_rows"]
            # Four values, the filler, four more values and four key tuples.
            assert values["engine_interner_values"] == 4 + 60_000 + 4 + 4
        finally:
            clear_column_caches()

    def test_collect_exports_the_cells_the_interner_resolved_under_its_lock(self):
        relation = Relation.from_tuples(RelationSchema.of("R", ("A", "B")),
                                        [(f"a{index}", index % 3)
                                         for index in range(50)])
        clear_column_caches()
        try:
            monitor = monitored_session().monitor
            locked = "engine_interner_locked_cells_total"
            start = monitor.collect()[locked]
            # Cold: every cell of both columns goes under the lock.
            ColumnBlock.from_relation(relation)
            values = monitor.collect()
            assert values[locked] == start + 100
            assert values[locked] == \
                column_cache_info()["interner_locked_cells"]
            # A re-ingest of the same values resolves lock-free: adds 0.
            ColumnBlock.from_relation(relation)
            ColumnBlock.from_columns("S", ("B",), {"B": [2, 0, 1, 1]})
            assert monitor.collect()[locked] == start + 100
            # A known first value takes the lock-free pass: only the new
            # cells (two of them, one value) go under the lock.
            current_interner().encode(["a0", "new", "a1", "new"])
            assert monitor.collect()[locked] == start + 102
            # A new first value: the whole column, known cells included.
            current_interner().encode(["cold", "a0", "a1"])
            assert monitor.collect()[locked] == start + 105
            # Retiring the generation carries its cells into the total.
            clear_column_caches()
            assert monitor.collect()[locked] == start + 105
        finally:
            clear_column_caches()

    def test_collect_exports_the_cyclic_collector(self):
        # The collector is triggered by allocation counts, so a batch of
        # decoded executes (two allocations per answer row) must move gen0.
        # Fresh databases: a repeat over one database is served from the
        # result memo and allocates no rows.
        session = monitored_session()
        databases = [skewed_chain_database(CHAIN, heads=40, fanout=6,
                                           junction_values=2, seed=seed)
                     for seed in range(40)]
        prepared = session.prepare(databases[0], skewed_chain_endpoints(CHAIN))
        before = session.monitor.collect()
        for generation in range(3):
            for family in ("process_gc_collections_total",
                           "process_gc_collected_total"):
                assert before[f"{family}{{generation={generation}}}"] >= 0
        results = [prepared.execute(database) for database in databases]
        assert sum(len(result.relation) for result in results) > 2_000
        after = session.monitor.collect()
        assert after["process_gc_collections_total{generation=0}"] \
            > before["process_gc_collections_total{generation=0}"]
        assert all(after[name] >= before[name] for name in before
                   if name.startswith("process_gc_"))
        assert 'process_gc_collections_total{generation="0"}' \
            in session.metrics.render_prometheus()

    @staticmethod
    def rendered_kinds(session) -> dict:
        """``{family: kind}`` read off the ``# TYPE`` lines of a scrape."""
        return {line.split()[2]: line.split()[3]
                for line in session.metrics.render_prometheus().splitlines()
                if line.startswith("# TYPE ")}

    def test_every_count_renders_as_a_counter(self):
        database = chain_db()
        session = monitored_session()
        session.prepare(database, skewed_chain_endpoints(CHAIN)).execute(database)
        values = session.monitor.collect()
        kinds = self.rendered_kinds(session)
        counts = [name for name, kind, _, _ in monitor_module._POLLED
                  if kind == "counter"]
        counts += [name for _, name, _, _ in monitor_module._CACHE_FAMILIES
                   if name.startswith("engine_cache_") and name.endswith("_total")]
        assert len(counts) == 7 + 3
        for name in counts:
            assert name.endswith("_total") and kinds[name] == "counter", name
        assert all(kind == "counter" for name, kind in kinds.items()
                   if name.endswith("_total"))
        # What is left typed a gauge is a size, never a count.
        assert {name for name, kind in kinds.items() if kind == "gauge"} == {
            "engine_interner_values", "engine_querylog_entries",
            "engine_database_relations", "engine_database_rows",
            "engine_cache_entries", "engine_cache_capacity"}
        # A field a cache lacks gets no series: the block cache has no bound.
        assert values["engine_cache_capacity{cache=planner}"] == \
            session.cache_info().capacity
        assert "engine_cache_capacity{cache=column_block}" not in values
        assert "engine_cache_evictions_total{cache=column_block}" not in values

    def test_no_clear_decreases_a_counter(self):
        database = chain_db()
        session = monitored_session()
        prepared = session.prepare(database, skewed_chain_endpoints(CHAIN))
        prepared.execute(database)
        prepared.execute(database)
        before = session.monitor.collect()
        kinds = self.rendered_kinds(session)
        counters = [key for key in before
                    if kinds[key.split("{")[0]] == "counter"]
        assert before["engine_cache_hits_total{cache=column_block}"] > 0
        assert before["engine_cache_misses_total{cache=planner}"] > 0
        clear_column_caches()
        session.clear()  # the planner's and the prepared queries' LRUCache.clear()
        after = session.monitor.collect()
        for key in counters:
            assert after[key] >= before[key], key
        # The sizes are what a clear resets.
        for cache in ("planner", "prepared", "column_block"):
            assert after[f"engine_cache_entries{{cache={cache}}}"] == 0

    def test_unbound_monitor_collects_nothing(self):
        assert SessionMonitor().collect() == {}


# --------------------------------------------------------------------------- #
# Payloads and schema validation
# --------------------------------------------------------------------------- #
class TestPayloads:
    def test_querylog_payload_validates_against_the_schema(self):
        databases = [chain_db(seed) for seed in range(2)]
        session = monitored_session()
        prepared = session.prepare(databases[0],
                                   skewed_chain_endpoints(CHAIN),
                                   name="endpoints")
        prepared.execute_many(databases)
        with pytest.raises(SchemaError):
            prepared.execute(skewed_chain_database(CHAIN + 1))
        payload = session.monitor.querylog_payload()
        summary = validate_query_log(payload)
        assert summary["entries"] == 3
        assert summary["errors"] == 1
        assert summary["queries"] == ["endpoints"]
        json.dumps(payload)  # the endpoint serves it verbatim

    def test_validation_rejects_tampered_payloads(self):
        session = monitored_session()
        database = chain_db()
        session.prepare(database,
                        skewed_chain_endpoints(CHAIN)).execute(database)
        payload = session.monitor.querylog_payload()
        broken = json.loads(json.dumps(payload))
        broken["entries"][0]["seq"] = 99
        broken["entries"][0]["kind"] = "unknown-kind"
        with pytest.raises(QueryLogValidationError):
            validate_query_log(broken)
        missing = json.loads(json.dumps(payload))
        del missing["entries"][0]["fingerprint"]
        with pytest.raises(QueryLogValidationError):
            validate_query_log(missing)

    def test_health_and_describe_summarise_the_monitor(self):
        session = monitored_session()
        database = chain_db()
        session.prepare(database,
                        skewed_chain_endpoints(CHAIN)).execute(database)
        health = session.monitor.health_payload()
        assert health["status"] == "ok"
        assert health["queries_recorded"] == 1
        assert health["errors_retained"] == 0
        assert "recorded=1" in session.monitor.describe()


# --------------------------------------------------------------------------- #
# Concurrency
# --------------------------------------------------------------------------- #
class TestConcurrency:
    def test_concurrent_execute_many_loses_no_entries_or_counts(self):
        databases = [chain_db(seed) for seed in range(3)]
        session = monitored_session(log_capacity=32)
        prepared = session.prepare(databases[0],
                                   skewed_chain_endpoints(CHAIN),
                                   name="endpoints")
        prepared.execute_many(databases)    # warm the plan and catalogs

        threads, repeats = 4, 5
        failures = []

        def serve():
            try:
                for _ in range(repeats):
                    prepared.execute_many(databases)
            except Exception as error:  # pragma: no cover - failure path
                failures.append(error)

        workers = [threading.Thread(target=serve) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        assert failures == []
        total = (threads * repeats + 1) * len(databases)
        log = session.monitor.log
        assert log.total_recorded == total
        assert len(log) == 32               # ring never exceeds capacity
        assert log.dropped == total - 32
        entries = log.entries()
        assert [entry.seq for entry in entries] == \
            list(range(total - 31, total + 1))
        # The metrics registry agrees with the log: no increment was lost.
        labels = {"kind": "acyclic"}
        counted = session.metrics.counter("engine_queries_total",
                                          labels=labels).value
        assert counted == total
