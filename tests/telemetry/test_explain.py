"""EXPLAIN ANALYZE: trace-sourced actuals vs the run's own statistics."""

from __future__ import annotations

import pytest

from repro.engine import EngineSession
from repro.generators import (
    generate_database,
    skewed_chain_database,
    skewed_chain_endpoints,
    triangle_core_chain,
)
from repro.relational import DatabaseSchema
from repro.telemetry import ExplainAnalysis, build_explain_analysis


@pytest.fixture
def acyclic_database():
    return skewed_chain_database(3, heads=6, fanout=3, junction_values=2,
                                 seed=1)


@pytest.fixture
def cyclic_database():
    schema = DatabaseSchema.from_hypergraph(triangle_core_chain(3))
    return generate_database(schema, universe_rows=40, seed=3)


class TestExplainAnalyze:
    def test_acyclic_actuals_match_the_statistics_exactly(
            self, acyclic_database):
        session = EngineSession()
        prepared = session.prepare(acyclic_database,
                                   skewed_chain_endpoints(3))
        analysis = prepared.explain_analyze(acyclic_database)
        statistics = analysis.statistics
        assert analysis.kind == "acyclic"
        assert analysis.actual_vertex_sizes == tuple(statistics.reduced_sizes)
        assert analysis.actual_step_sizes == tuple(
            statistics.intermediate_sizes)
        assert analysis.output.actual == statistics.output_size
        assert analysis.clusters == ()

    def test_cyclic_actuals_include_the_materialised_clusters(
            self, cyclic_database):
        session = EngineSession()
        prepared = session.prepare(cyclic_database)
        analysis = prepared.explain_analyze(cyclic_database)
        statistics = analysis.statistics
        assert analysis.kind == "cyclic"
        assert analysis.actual_cluster_sizes == tuple(
            statistics.cluster_sizes)
        assert analysis.actual_vertex_sizes == tuple(statistics.reduced_sizes)
        assert analysis.actual_step_sizes == tuple(
            statistics.intermediate_sizes)
        assert analysis.output.actual == statistics.output_size

    def test_adaptive_runs_fill_the_estimated_column(self, acyclic_database):
        session = EngineSession(adaptive=True)
        prepared = session.prepare(acyclic_database,
                                   skewed_chain_endpoints(3))
        analysis = prepared.explain_analyze(acyclic_database)
        assert analysis.adaptive
        assert any(entry.estimated is not None for entry in analysis.vertices)
        assert analysis.output.estimated is not None

    def test_render_carries_the_headline_sections(self, acyclic_database,
                                                  engine_execution_mode):
        session = EngineSession()
        prepared = session.prepare(acyclic_database)
        text = prepared.explain(acyclic_database, analyze=True)
        assert text.startswith("EXPLAIN ANALYZE")
        assert f"{engine_execution_mode} mode" in text
        assert "phases:" in text
        assert "vertices (reduced rows):" in text
        assert "output:" in text
        assert "est=" in text and "actual=" in text

    @pytest.mark.parametrize("fixture", ["acyclic_database",
                                         "cyclic_database"])
    def test_output_line_is_the_same_under_deferred_decode(self, request,
                                                           fixture):
        # The output actual is read off the ``decode`` span, which a run that
        # builds no rows must still open (``deferred``).
        database = request.getfixturevalue(fixture)
        lines = []
        for decode in ("rows", "block"):
            prepared = EngineSession(execution_mode="columnar",
                                     decode=decode).prepare(database)
            text = prepared.explain(database, analyze=True)
            lines.append(next(line for line in text.splitlines()
                              if line.lstrip().startswith("output:")))
        assert lines[0] == lines[1]
        assert "actual=-" not in lines[0]

    def test_a_deferred_decode_span_says_so(self, acyclic_database):
        from repro.telemetry.tracing import Tracer, use_tracer

        prepared = EngineSession(execution_mode="columnar",
                                 decode="block").prepare(acyclic_database)
        tracer = Tracer()
        with use_tracer(tracer):
            result = prepared.execute(acyclic_database)
        (decode,) = [record for record in tracer.records
                     if record["name"] == "decode"]
        assert decode["attributes"]["deferred"] is True
        assert decode["attributes"]["output_rows"] == len(result.block)
        assert decode["attributes"]["mode"] == "columnar"
        assert decode["attributes"]["backend"] \
            == result.statistics.column_backend

    def test_analyze_requires_a_database(self, acyclic_database):
        prepared = EngineSession().prepare(acyclic_database)
        with pytest.raises(ValueError):
            prepared.explain(analyze=True)

    def test_plain_explain_needs_no_database(self, acyclic_database):
        prepared = EngineSession().prepare(acyclic_database)
        assert prepared.explain()  # the static plan description still renders


class TestBuildExplainAnalysis:
    def test_missing_spans_render_as_unknown_actuals(self):
        class Stats:
            adaptive = False
            execution_mode = "columnar"
            phase_times = ()

        analysis = build_explain_analysis(
            name="Q", kind="acyclic", statistics=Stats(), records=())
        assert isinstance(analysis, ExplainAnalysis)
        assert analysis.vertices == ()
        assert analysis.output.actual is None
        assert "actual=-" in analysis.render()

    def test_shorter_columns_pad_defensively(self):
        class Stats:
            adaptive = False
            execution_mode = "row"
            phase_times = ()

        records = ({"name": "reduce", "attributes":
                    {"vertices": ("{A}", "{B}"), "sizes_after": (3,)}},)
        analysis = build_explain_analysis(
            name="Q", kind="acyclic", statistics=Stats(), records=records)
        assert [entry.label for entry in analysis.vertices] == ["{A}", "{B}"]
        assert analysis.actual_vertex_sizes == (3, None)
