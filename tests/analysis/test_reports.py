"""Unit tests for the plain-text report helpers."""

from __future__ import annotations

from repro.analysis import banner, format_mapping, format_table, statistics_table
from repro.engine import CyclicEngineStatistics, EngineStatistics
from repro.relational import JoinStatistics


class TestFormatTable:
    def test_basic_table(self):
        rows = [{"name": "fig1", "edges": 4}, {"name": "triangle", "edges": 3}]
        text = format_table(rows, title="hypergraphs")
        assert "hypergraphs" in text
        assert "fig1" in text and "triangle" in text
        assert text.splitlines()[2].startswith("name")

    def test_column_selection_and_order(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b", "a"])
        header = text.splitlines()[0]
        assert header.index("b") < header.index("a")

    def test_missing_values_render_empty(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "3" in text

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="nothing")
        assert "(no rows)" in format_table([])

    def test_alignment(self):
        rows = [{"key": "x", "value": 1}, {"key": "longer", "value": 22}]
        lines = format_table(rows).splitlines()
        assert len(lines[2]) <= len(lines[0]) + 2


class TestStatisticsTable:
    def _three_plans(self):
        naive = JoinStatistics(plan_name="naive", input_sizes=(10, 10),
                               intermediate_sizes=(50, 120), output_size=4)
        engine = EngineStatistics(plan_name="engine-yannakakis", input_sizes=(10, 10),
                                  intermediate_sizes=(6,), output_size=4,
                                  semijoin_steps=2, rows_removed_by_reduction=8,
                                  plan_cache_hit=True)
        cyclic = CyclicEngineStatistics(plan_name="engine-cyclic", input_sizes=(10, 10, 10),
                                        intermediate_sizes=(12, 6), output_size=4,
                                        semijoin_steps=2, rows_removed_by_reduction=5,
                                        cluster_sizes=(12,), cluster_widths=(3,))
        return naive, engine, cyclic

    def test_renders_every_plan_kind_uniformly(self):
        text = statistics_table(self._three_plans(), title="plans")
        lines = text.splitlines()
        assert lines[0] == "plans"
        assert "naive" in text and "engine-yannakakis" in text and "engine-cyclic" in text
        # Same column set for every row: the header appears once, each row
        # fills every column (plain JoinStatistics gets "-" placeholders).
        header = lines[2]
        for column in ("plan", "max intermediate", "output", "semijoins", "clusters"):
            assert column in header

    def test_placeholders_for_missing_counters(self):
        naive, _, cyclic = self._three_plans()
        text = statistics_table([naive])
        assert "-" in text  # naive has no semijoin/cluster counters
        assert "[12]" in statistics_table([cyclic])

    def test_plan_cache_column(self):
        _, engine, _ = self._three_plans()
        assert "hit" in statistics_table([engine])

    def test_index_cache_column(self):
        naive, _, _ = self._three_plans()
        engine = EngineStatistics(plan_name="engine-yannakakis", input_sizes=(10,),
                                  intermediate_sizes=(6,), output_size=4,
                                  index_cache_hits=6, index_cache_misses=1)
        text = statistics_table([naive, engine])
        header = text.splitlines()[0]
        assert "mode" not in header and "index cache" in header
        assert "6h/1m" in text
        naive_row = [line for line in text.splitlines() if "naive" in line][0]
        assert "h/" not in naive_row  # plain plans render dashes

    def test_estimated_columns_for_adaptive_runs(self):
        adaptive = EngineStatistics(plan_name="engine-yannakakis-adaptive",
                                    input_sizes=(10, 10), intermediate_sizes=(6,),
                                    output_size=4, adaptive=True,
                                    estimated_intermediate_sizes=(5, 3),
                                    estimated_output_size=4)
        text = statistics_table([adaptive])
        header = text.splitlines()[0]
        assert "est max" in header and "est output" in header
        row = text.splitlines()[2]
        assert " 5 " in f" {row} "  # the predicted largest intermediate

    def test_estimated_columns_are_placeholders_for_static_runs(self):
        naive, engine, _ = self._three_plans()
        for line in statistics_table([naive, engine]).splitlines()[2:]:
            assert "-" in line  # est max / est output render as dashes


class TestFormatMappingAndBanner:
    def test_format_mapping(self):
        text = format_mapping({"alpha": True, "edges": 4}, title="report")
        assert "report" in text
        assert "alpha" in text and "True" in text

    def test_format_mapping_empty(self):
        assert format_mapping({}) == ""

    def test_banner(self):
        text = banner("Experiment E-FIG1")
        assert "Experiment E-FIG1" in text
        assert text.count("=") >= 2 * len("Experiment E-FIG1")


class TestBatchStatisticsTable:
    def _batch(self):
        from repro.engine.session import BatchStatistics

        runs = (
            EngineStatistics(plan_name="engine-yannakakis", input_sizes=(10, 10),
                             intermediate_sizes=(6,), output_size=4,
                             semijoin_steps=2, rows_removed_by_reduction=8,
                             plan_cache_hit=True),
            EngineStatistics(plan_name="engine-yannakakis", input_sizes=(20, 5),
                             intermediate_sizes=(9, 3), output_size=7,
                             semijoin_steps=2, rows_removed_by_reduction=1,
                             plan_cache_hit=True),
        )
        return BatchStatistics.from_runs(runs, plan_name="session-batch:U")

    def test_batch_expands_to_per_database_rows_plus_totals(self):
        batch = self._batch()
        text = statistics_table([batch], title="batch")
        lines = text.splitlines()
        # Two per-database rows (labelled) and one totals row.
        assert any("[db0]" in line for line in lines)
        assert any("[db1]" in line for line in lines)
        totals = [line for line in lines if "(total)" in line]
        assert len(totals) == 1
        assert "session-batch:U (total)" in totals[0]

    def test_totals_row_aggregates_the_runs(self):
        batch = self._batch()
        assert batch.output_size == 11
        assert batch.max_intermediate == 9
        assert batch.total_intermediate == 18
        assert batch.semijoin_steps == 4
        assert batch.rows_removed_by_reduction == 9
        assert batch.plan_cache_hit
        totals = [line for line in statistics_table([batch]).splitlines()
                  if "(total)" in line][0]
        assert " 11 " in f" {totals} "

    def test_batch_aggregates_index_cache(self):
        batch = self._batch()
        assert batch.index_cache_hits == 0
        from repro.engine.session import BatchStatistics

        mixed = BatchStatistics.from_runs((
            EngineStatistics(plan_name="e", input_sizes=(1,), output_size=1,
                             index_cache_hits=3),
            EngineStatistics(plan_name="e", input_sizes=(1,), output_size=1,
                             index_cache_misses=2),
        ))
        assert mixed.index_cache_hits == 3
        assert mixed.index_cache_misses == 2
        naive_only = BatchStatistics.from_runs((
            JoinStatistics(plan_name="naive", input_sizes=(1,), output_size=1),
        ))
        assert naive_only.index_cache_hits is None  # no fabricated traffic
        assert "0h/0m" not in statistics_table([naive_only])

    def test_batches_mix_with_plain_statistics(self):
        naive = JoinStatistics(plan_name="naive", input_sizes=(10,),
                               intermediate_sizes=(50,), output_size=4)
        text = statistics_table([naive, self._batch()])
        assert "naive" in text and "(total)" in text


class TestQueryLogTable:
    def _entries(self):
        from repro.telemetry import QueryLogEntry

        class Stats:
            output_size = 42
            plan_cache_hit = True

        ok = QueryLogEntry("endpoints", "f1", "acyclic", "db0",
                           elapsed_seconds=0.0123, statistics=Stats(), seq=1)
        slow = QueryLogEntry("endpoints", "f1", "acyclic", "db1",
                             elapsed_seconds=0.9, statistics=Stats(),
                             slow=True, trace=({"name": "execute"},), seq=2)
        bad = QueryLogEntry("endpoints", "f1", "acyclic", "db0",
                            error="SchemaError: wrong shape", seq=3)
        return ok, slow, bad

    def test_renders_objects_one_row_per_execution(self):
        from repro.analysis import query_log_table

        text = query_log_table(self._entries(), title="query log")
        assert "query log" in text
        lines = text.splitlines()
        assert sum("endpoints" in line for line in lines) == 3
        assert "12.30" in text and "42" in text and "hit" in text

    def test_slow_marker_distinguishes_retained_traces(self):
        from repro.analysis import query_log_table

        ok, slow, bad = self._entries()
        with_trace = query_log_table([slow])
        assert "slow*" in with_trace
        slow.trace = None
        without = query_log_table([slow])
        assert "slow" in without and "slow*" not in without

    def test_errored_rows_show_the_error_not_cardinalities(self):
        from repro.analysis import query_log_table

        ok, slow, bad = self._entries()
        (row,) = [line for line in query_log_table([bad]).splitlines()
                  if "SchemaError" in line]
        assert " - " in row  # rows and plan-cache columns are blanked

    def test_accepts_the_querylog_endpoint_json(self):
        from repro.analysis import query_log_table

        ok, slow, bad = self._entries()
        text = query_log_table([entry.to_dict()
                                for entry in (ok, slow, bad)])
        assert "slow*" in text and "SchemaError" in text and "42" in text


class TestPlanQualityTable:
    def _tracker(self):
        from dataclasses import dataclass, field
        from typing import Tuple

        from repro.telemetry import PlanQualityTracker

        @dataclass(frozen=True)
        class Stats:
            adaptive: bool = True
            estimated_intermediate_sizes: Tuple[int, ...] = ()
            intermediate_sizes: Tuple[int, ...] = ()
            estimated_output_size: object = None
            output_size: int = 0

        tracker = PlanQualityTracker(drift_min_runs=1)
        tracker.observe(fingerprint="drifty", query="q1", statistics=Stats(
            estimated_intermediate_sizes=(1,), intermediate_sizes=(100,)))
        tracker.observe(fingerprint="steady", query="q2", statistics=Stats(
            estimated_intermediate_sizes=(10,), intermediate_sizes=(10,)))
        return tracker

    def test_renders_a_tracker_with_drift_flags(self):
        from repro.analysis import plan_quality_table

        text = plan_quality_table(self._tracker(), title="plan quality")
        assert "plan quality" in text
        (drifty,) = [line for line in text.splitlines() if "drifty" in line]
        (steady,) = [line for line in text.splitlines() if "steady" in line]
        assert "DRIFTED" in drifty and "DRIFTED" not in steady
        assert "q1" in drifty and "50.50" in drifty
        assert "≤64=1" in drifty

    def test_accepts_the_quality_endpoint_json(self):
        from repro.analysis import plan_quality_table

        text = plan_quality_table(self._tracker().to_dict())
        assert "DRIFTED" in text and "drifty" in text and "steady" in text

    def test_accepts_a_bare_record_sequence(self):
        from repro.analysis import plan_quality_table

        text = plan_quality_table(self._tracker().records())
        # No tracker and no JSON flag: drift is unknown, not asserted.
        assert "drifty" in text and "DRIFTED" not in text

    def test_zero_count_buckets_are_elided(self):
        from repro.analysis import plan_quality_table

        (steady_line,) = [line
                          for line in plan_quality_table(
                              self._tracker()).splitlines()
                          if "steady" in line]
        assert "≤1.5=1" in steady_line and "≤2" not in steady_line
