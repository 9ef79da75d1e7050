"""EXPLAIN ANALYZE: trace-sourced actuals vs the run's own statistics."""

from __future__ import annotations

import pytest

from repro.engine import EngineSession
from repro.generators import (
    cyclic_workload_families,
    generate_database,
    k_cycle_hypergraph,
    skewed_chain_database,
    skewed_chain_endpoints,
    triangle_core_chain,
)
from repro.relational import DatabaseSchema
from repro.telemetry import ExplainAnalysis, build_explain_analysis


def _actual_sizes(entries):
    """The trace-sourced ``actual`` of each report entry, in report order."""
    return tuple(entry.actual for entry in entries)


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
        assert _actual_sizes(analysis.vertices) == tuple(statistics.reduced_sizes)
        assert _actual_sizes(analysis.steps) == tuple(
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
        assert _actual_sizes(analysis.clusters) == tuple(
            statistics.cluster_sizes)
        assert _actual_sizes(analysis.vertices) == tuple(statistics.reduced_sizes)
        assert _actual_sizes(analysis.steps) == tuple(
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

    def test_render_carries_the_headline_sections(self, acyclic_database):
        session = EngineSession()
        prepared = session.prepare(acyclic_database)
        text = prepared.explain(acyclic_database, analyze=True)
        assert text.startswith("EXPLAIN ANALYZE")
        assert "(acyclic dispatch, adaptive)" in text
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
            prepared = EngineSession(decode=decode).prepare(database)
            text = prepared.explain(database, analyze=True)
            lines.append(next(line for line in text.splitlines()
                              if line.lstrip().startswith("output:")))
        assert lines[0] == lines[1]
        assert "actual=-" not in lines[0]

    def test_a_deferred_decode_span_says_so(self, acyclic_database):
        from repro.telemetry.tracing import Tracer, use_tracer

        prepared = EngineSession(decode="block").prepare(acyclic_database)
        tracer = Tracer()
        with use_tracer(tracer):
            result = prepared.execute(acyclic_database)
        (decode,) = [record for record in tracer.records
                     if record["name"] == "decode"]
        assert decode["attributes"]["deferred"] is True
        assert decode["attributes"]["output_rows"] == len(result.block)
        assert decode["attributes"]["backend"] \
            == result.statistics.column_backend

    def test_analyze_requires_a_database(self, acyclic_database):
        prepared = EngineSession().prepare(acyclic_database)
        with pytest.raises(ValueError):
            prepared.explain(analyze=True)

    def test_plain_explain_needs_no_database(self, acyclic_database):
        prepared = EngineSession().prepare(acyclic_database)
        assert prepared.explain()  # the static plan description still renders


class TestExplainRendersThePlanThatRan:
    """The plan section of EXPLAIN ANALYZE is the binding's plan, not the static one."""

    def test_a_rerooted_chain_renders_its_cost_ordered_reducer(
            self, acyclic_database):
        session = EngineSession()
        outputs = skewed_chain_endpoints(3)
        prepared = session.prepare(acyclic_database, outputs)
        analysis = prepared.explain_analyze(acyclic_database)
        annotated = session.planner.annotate(
            acyclic_database.schema.to_hypergraph(),
            acyclic_database.statistics_catalog(), output_attributes=outputs)
        assert annotated.structure is not prepared.structure  # re-rooted
        assert annotated.reducer.describe() != prepared.structure.reducer.describe()
        assert analysis.plan_description == annotated.describe()
        assert annotated.reducer.describe() in analysis.plan_description
        assert prepared.structure.reducer.describe() not in analysis.plan_description
        assert "    CostAnnotation root=" in analysis.render()

    def test_a_cold_cycle_renders_the_catalog_chosen_cover(self):
        hypergraph = k_cycle_hypergraph(3)
        database = generate_database(DatabaseSchema.from_hypergraph(hypergraph),
                                     universe_rows=100, domain_size=8,
                                     dangling_fraction=0.5, seed=4)
        session = EngineSession()
        prepared = session.prepare(database, ("R0", "R2"))
        analysis = prepared.explain_analyze(database)
        chosen = session.planner.cyclic_plan_for(
            hypergraph, catalog=database.statistics_catalog())
        assert analysis.plan_description == chosen.describe()
        static = prepared.structure
        assert static.cover != chosen.cover
        assert static.describe() != analysis.plan_description


class TestProjectedClusters:
    """What a cyclic core probed and what it kept, side by side."""

    @pytest.fixture
    def triangle_chain_database(self):
        schema = DatabaseSchema.from_hypergraph(triangle_core_chain(4))
        return generate_database(schema, universe_rows=200, domain_size=8,
                                 dangling_fraction=0.5, seed=4)

    def test_a_projected_cluster_says_what_it_kept_and_probed(
            self, triangle_chain_database):
        prepared = EngineSession(adaptive=True).prepare(triangle_chain_database,
                                                       ("C0", "C5"))
        analysis = prepared.explain_analyze(triangle_chain_database)
        notes = [entry.note for entry in analysis.clusters if entry.note]
        span = next(record for record in analysis.records
                    if record["name"] == "materialise")["attributes"]
        core = next(index for index, members in enumerate(span["fan_out"])
                    if members > 1)
        assert span["schemes"][core] == ["C0", "T1", "T2"]
        assert span["kept"][core] == ["C0"]
        assert [kept for index, kept in enumerate(span["kept"]) if index != core] \
            == [scheme for index, scheme in enumerate(span["schemes"])
                if index != core]
        assert len(span["probe_rows"]) == len(span["intermediates"])
        assert all(probed >= kept for probed, kept
                   in zip(span["probe_rows"], span["intermediates"]))
        rows = span["cluster_sizes"][core]
        assert notes == [f"{{C0, T1, T2}} → keeps {{C0}}: {rows} rows "
                         f"({max(span['probe_rows'][:2])} probed)"]
        assert notes[0] in analysis.render()

    def test_an_unprojected_run_carries_no_note(self, cyclic_database):
        analysis = EngineSession().prepare(cyclic_database).explain_analyze(
            cyclic_database)
        assert all(entry.note == "" for entry in analysis.clusters)
        assert "keeps" not in analysis.render()

    @pytest.mark.parametrize("family", [name for name, _
                                        in cyclic_workload_families()])
    def test_one_estimate_per_join_step(self, family):
        hypergraph = dict(cyclic_workload_families())[family]
        database = generate_database(DatabaseSchema.from_hypergraph(hypergraph),
                                     universe_rows=30, domain_size=4,
                                     dangling_fraction=0.3, seed=5)
        outputs = sorted(hypergraph.nodes)[:2]
        session = EngineSession(adaptive=True)
        for wanted in (None, outputs):
            statistics = session.prepare(database, wanted).execute(
                database).statistics
            assert len(statistics.estimated_intermediate_sizes) \
                == len(statistics.intermediate_sizes)
        # The binding is warm, so the analysis renders the stored run's steps.
        analysis = session.prepare(database, outputs).explain_analyze(database)
        assert analysis.statistics.served
        assert _actual_sizes(analysis.steps) == statistics.intermediate_sizes
        assert all(entry.estimated is not None and entry.actual is not None
                   for entry in analysis.steps)


class TestBuildExplainAnalysis:
    def test_missing_spans_render_as_unknown_actuals(self):
        class Stats:
            adaptive = False
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
            phase_times = ()

        records = ({"name": "reduce", "attributes":
                    {"vertices": ("{A}", "{B}"), "sizes_after": (3,)}},)
        analysis = build_explain_analysis(
            name="Q", kind="acyclic", statistics=Stats(), records=records)
        assert [entry.label for entry in analysis.vertices] == ["{A}", "{B}"]
        assert _actual_sizes(analysis.vertices) == (3, None)

    def test_phase_attributes_stand_in_for_the_phase_spans(self):
        class Stats:
            adaptive = False
            phase_times = (("prepare", 0.001),)

        records = ({"name": "prepare", "attributes": {"cached": True}},)
        analysis = build_explain_analysis(
            name="Q", kind="acyclic", statistics=Stats(), records=records,
            phase_attributes={
                "reduce": {"vertices": ["{A}"], "sizes_after": [2]},
                "fold": {"intermediates": [2, 1]},
                "decode": {"output_rows": 1}})
        assert _actual_sizes(analysis.vertices) == (2,)
        assert _actual_sizes(analysis.steps) == (2, 1)
        assert analysis.output.actual == 1
        assert analysis.records == records
