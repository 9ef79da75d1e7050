"""Unit tests for the statistics catalog and cost annotations (repro.engine.catalog)."""

from __future__ import annotations

import pytest

from repro.core.hypergraph import Hypergraph
from repro.core.join_tree import build_join_tree
from repro.engine import EngineSession, QueryPlanner
from repro.engine.catalog import (
    CostAnnotation,
    JoinEstimate,
    RelationStatistics,
    StatisticsCatalog,
    annotate_tree,
)
from repro.engine.planner import AnnotatedPlan
from repro.engine.columnar import block_for
from repro.engine.reducer import ReductionTrace
from repro.generators import (
    generate_database,
    skewed_chain_database,
    skewed_chain_endpoints,
    university_schema,
)
from repro.relational import DatabaseSchema, Relation, RelationSchema

from properties.strategies import semijoin_stable


def _relation(name, attributes, tuples):
    return Relation.from_tuples(RelationSchema.of(name, attributes), tuples)


class TestRelationStatistics:
    def test_measure_exact(self):
        relation = _relation("R", ("A", "B"),
                             [(1, "x"), (2, "x"), (3, "y"), (3, "z")])
        stats = RelationStatistics.measure(relation)
        assert stats.cardinality == 4
        assert stats.distinct_counts == {"A": 3, "B": 3}

    def test_merged_with_takes_minima(self):
        left = RelationStatistics(edge=frozenset("AB"), cardinality=10,
                                  distinct_counts={"A": 10, "B": 2})
        right = RelationStatistics(edge=frozenset("AB"), cardinality=6,
                                   distinct_counts={"A": 3, "B": 6})
        merged = left.merged_with(right)
        assert merged.cardinality == 6
        assert merged.distinct_counts == {"A": 3, "B": 2}

    def test_merged_with_rejects_different_schemes(self):
        left = RelationStatistics(edge=frozenset("AB"), cardinality=1,
                                  distinct_counts={"A": 1, "B": 1})
        right = RelationStatistics(edge=frozenset("AC"), cardinality=1,
                                   distinct_counts={"A": 1, "C": 1})
        with pytest.raises(ValueError):
            left.merged_with(right)

    def test_describe_mentions_rows(self):
        relation = _relation("R", ("A",), [(value,) for value in range(30)])
        assert "30 rows" in RelationStatistics.measure(relation).describe()


class TestStatisticsCatalog:
    def _catalog(self):
        return StatisticsCatalog.from_relations([
            _relation("R", ("A", "B"), [(a, a % 2) for a in range(12)]),
            _relation("S", ("B", "C"), [(b % 2, b) for b in range(4)]),
        ])

    def test_cardinality_and_distinct_lookups(self):
        catalog = self._catalog()
        assert catalog.cardinality(("A", "B")) == 12
        assert catalog.cardinality(("B", "C")) == 4
        assert catalog.distinct_count(("A", "B"), "A") == 12
        assert catalog.distinct_count(("A", "B"), "B") == 2
        assert catalog.cardinality(("X",)) is None
        assert catalog.cardinality(("X",), default=7) == 7

    def test_attribute_distinct_is_minimum_over_schemes(self):
        catalog = StatisticsCatalog.from_relations([
            _relation("R", ("A", "B"), [(a, a % 2) for a in range(12)]),
            _relation("S", ("B", "C"), [(b, b) for b in range(4)]),
        ])
        joined = catalog.estimate_for(("A", "B")).join(catalog.estimate_for(("B", "C")))
        # B has 2 distinct values in R and 4 in S: the join keeps the fewer.
        assert joined.distincts["B"] == 2
        assert joined.distincts["A"] == 12 and joined.distincts["C"] == 4
        assert "missing" not in joined.distincts

    def test_join_selectivity_uses_max_distinct_per_shared_attribute(self):
        catalog = self._catalog()

        def selectivity(left, right):
            left, right = catalog.estimate_for(left), catalog.estimate_for(right)
            return left.join(right).cardinality / (left.cardinality * right.cardinality)

        assert selectivity(("A", "B"), ("B", "C")) == pytest.approx(1 / 2)
        assert selectivity(("A", "B"), ("C",)) == 1.0

    def test_estimate_join_size_matches_system_r_formula(self):
        catalog = self._catalog()
        # |R|*|S| / max(d_R(B), d_S(B)) = 12*4/2 = 24.
        joined = catalog.estimate_for(("A", "B")).join(catalog.estimate_for(("B", "C")))
        assert joined.rows == 24

    def test_estimate_semijoin_size(self):
        catalog = self._catalog()
        target = catalog.estimate_for(("A", "B"))
        # Both sides hold both B values, so nothing is predicted to drop.
        kept = target.semijoin_selectivity(catalog.estimate_for(("B", "C")))
        assert target.scaled(kept).rows == 12

    def test_duplicate_schemes_are_merged(self):
        catalog = StatisticsCatalog.from_relations([
            _relation("R", ("A",), [(1,), (2,), (3,)]),
            _relation("R2", ("A",), [(1,), (2,)]),
        ])
        assert len(catalog) == 1
        assert catalog.cardinality(("A",)) == 2

    def test_a_database_catalog_measures_every_relation(self):
        database = generate_database(university_schema(), universe_rows=15, seed=4)
        catalog = database.statistics_catalog()
        assert len(catalog) == len(database.relations())
        remeasured = StatisticsCatalog.from_relations(database.relations())
        assert remeasured.edges == catalog.edges
        assert remeasured.describe() == catalog.describe()

    def test_estimate_for_unknown_scheme_is_neutral(self):
        catalog = self._catalog()
        estimate = catalog.estimate_for(frozenset("XY"))
        assert estimate.rows >= 1
        # Unknown attributes are fully distinct: no false selectivity.
        assert estimate.distincts["X"] == estimate.cardinality

    @pytest.mark.parametrize("probe, measured", [
        (("B", "A"), True), (frozenset("BC"), True), (("A",), False),
        (None, False), (5, False), ([["A"]], False),
    ], ids=["scheme", "frozenset", "unmeasured", "none", "int",
            "unhashable-attribute"])
    def test_membership_is_by_scheme_and_false_for_a_non_scheme(self, probe, measured):
        assert (probe in self._catalog()) is measured

    def test_describe_lists_every_scheme(self):
        text = self._catalog().describe()
        assert "StatisticsCatalog" in text and "2 schemes" in text


class TestJoinEstimate:
    def test_join_applies_selectivity(self):
        left = JoinEstimate(frozenset("AB"), 100, {"A": 100, "B": 10})
        right = JoinEstimate(frozenset("BC"), 50, {"B": 50, "C": 5})
        joined = left.join(right)
        assert joined.attributes == frozenset("ABC")
        assert joined.cardinality == pytest.approx(100 * 50 / 50)
        assert joined.distincts["B"] == 10  # min of the two sides

    def test_project_caps_by_distinct_product(self):
        estimate = JoinEstimate(frozenset("AB"), 1000, {"A": 10, "B": 3})
        projected = estimate.project(frozenset("AB"))
        assert projected.cardinality == pytest.approx(30)
        assert estimate.project(frozenset()).cardinality == 1.0

    def test_distincts_are_clamped_to_cardinality(self):
        estimate = JoinEstimate(frozenset("A"), 5, {"A": 50})
        assert estimate.distincts["A"] == 5.0

    def test_semijoin_selectivity(self):
        target = JoinEstimate(frozenset("AB"), 100, {"A": 100, "B": 10})
        source = JoinEstimate(frozenset("B"), 2, {"B": 2})
        assert target.semijoin_selectivity(source) == pytest.approx(0.2)


class TestAnnotateTree:
    def _skewed_setup(self):
        database = skewed_chain_database(3, heads=20, fanout=10,
                                         junction_values=3, seed=2)
        hypergraph = database.schema.to_hypergraph()
        tree = build_join_tree(hypergraph)
        return database, tree

    def test_annotation_picks_the_narrow_root(self):
        database, tree = self._skewed_setup()
        annotation = annotate_tree(tree, database.statistics_catalog(),
                                   output_attributes=skewed_chain_endpoints(3))
        # The default root (lexicographically first: {C0, C1}) drags the wide
        # C1 separator through the fold; the annotation must move the root
        # towards the narrow junction side.
        assert annotation.root is not None
        assert annotation.root != frozenset({"C0", "C1"})

    def test_annotation_predicts_smaller_intermediates_than_default(self):
        database, tree = self._skewed_setup()
        catalog = database.statistics_catalog()
        wanted = skewed_chain_endpoints(3)
        adaptive = annotate_tree(tree, catalog, output_attributes=wanted)
        pinned = annotate_tree(tree, catalog, output_attributes=wanted,
                               candidate_roots=[None])
        assert adaptive.estimated_max_intermediate \
            < pinned.estimated_max_intermediate

    def test_estimates_are_exact_on_the_constructed_chain(self):
        database, tree = self._skewed_setup()
        result = EngineSession(QueryPlanner(), adaptive=True).prepare(
            database, skewed_chain_endpoints(3)).execute(database)
        stats = result.statistics
        assert stats.adaptive
        assert stats.estimated_max_intermediate is not None
        # Predictions within 2x of the measured sizes on this workload.
        assert stats.estimated_max_intermediate <= 2 * max(stats.max_intermediate, 1)
        assert stats.max_intermediate <= 2 * max(stats.estimated_max_intermediate, 1)

    def test_order_children_keeps_unknown_children_stable(self):
        annotation = CostAnnotation(
            root=None, child_order={frozenset("AB"): (frozenset("BC"),)},
            vertex_estimates={}, reduced_estimates={},
            estimated_intermediate_sizes=(), estimated_output_size=0)
        ordered = annotation.order_children(
            frozenset("AB"), [frozenset("BD"), frozenset("BC")])
        assert ordered[0] == frozenset("BC")
        assert annotation.order_children(frozenset("ZZ"), [frozenset("BD")]) \
            == (frozenset("BD"),)

    def test_universal_join_annotation_has_no_root_preference(self):
        # Without a projection every rooting materialises the same final
        # join, so the tie-break must keep the default rooting.
        database, tree = self._skewed_setup()
        annotation = annotate_tree(tree, database.statistics_catalog())
        assert annotation.root is None


class TestPlannerIntegration:
    def test_annotate_returns_an_annotated_plan(self):
        planner = QueryPlanner()
        database = skewed_chain_database(3, heads=10, fanout=5, seed=0)
        plan = planner.annotate(database.schema.to_hypergraph(),
                                database.statistics_catalog(),
                                output_attributes=skewed_chain_endpoints(3))
        assert isinstance(plan, AnnotatedPlan)
        assert plan.fingerprint == plan.structure.fingerprint
        assert plan.catalog.cardinality(("C0", "C1")) == 50

    def test_annotation_does_not_invalidate_the_fingerprint_cache(self):
        planner = QueryPlanner()
        database = skewed_chain_database(3, heads=20, fanout=10, seed=2)
        hypergraph = database.schema.to_hypergraph()
        static = planner.plan_for(hypergraph)
        annotated = planner.annotate(hypergraph, database.statistics_catalog(),
                                     output_attributes=skewed_chain_endpoints(3))
        # The static default-root plan is still served from cache ...
        assert planner.plan_for(hypergraph) is static
        # ... and the annotation's re-rooted structure is itself cached.
        assert planner.plan_for(hypergraph,
                                root=annotated.annotation.root) \
            is annotated.structure

    def test_cost_ordered_reducer_still_fully_reduces(self):
        database = skewed_chain_database(3, heads=10, fanout=4, seed=5)
        planner = QueryPlanner()
        annotated = planner.annotate(database.schema.to_hypergraph(),
                                     database.statistics_catalog(),
                                     output_attributes=skewed_chain_endpoints(3))
        assert len(annotated.reducer) == len(annotated.structure.reducer)
        vertex_map = {relation.schema.attribute_set: block_for(relation)
                      for relation in database.relations()}
        trace = ReductionTrace()
        reduced = annotated.reducer.run_blocks(vertex_map, trace=trace)
        assert semijoin_stable(reduced, annotated.reducer.rooted)

    def test_explicit_root_pins_the_annotation(self):
        planner = QueryPlanner()
        database = skewed_chain_database(3, heads=20, fanout=10, seed=2)
        pinned_root = frozenset({"C0", "C1"})
        annotated = planner.annotate(database.schema.to_hypergraph(),
                                     database.statistics_catalog(),
                                     output_attributes=skewed_chain_endpoints(3),
                                     root=pinned_root)
        assert annotated.structure.root == pinned_root

    def test_adaptive_order_halves_the_largest_intermediate(self):
        """Every tuple of the skewed chain joins, so only the fold order can
        help: the adaptive plan's largest intermediate is at least 2x smaller
        than the static plan's, with the same answer."""
        database = skewed_chain_database(3, heads=40, fanout=25,
                                         junction_values=4, seed=42)
        endpoints = skewed_chain_endpoints(3)
        static = EngineSession(adaptive=False).prepare(database, endpoints) \
            .execute(database)
        adaptive = EngineSession(adaptive=True).prepare(database, endpoints) \
            .execute(database)
        assert frozenset(adaptive.relation.rows) == frozenset(static.relation.rows)
        assert 2 * adaptive.statistics.max_intermediate \
            <= static.statistics.max_intermediate

    def test_annotated_plan_describe_mentions_annotation(self):
        planner = QueryPlanner()
        database = skewed_chain_database(3, heads=5, fanout=2, seed=0)
        plan = planner.annotate(database.schema.to_hypergraph(),
                                database.statistics_catalog())
        text = plan.describe()
        assert "ExecutionPlan" in text and "CostAnnotation" in text


class TestAdaptiveCyclicCoverScore:
    def test_cover_score_with_catalog_breaks_ties_by_cardinality(self):
        from repro.engine.cyclic.covers import cover_score, enumerate_covers, select_cover

        # Two triangles bridged: the static score splits the 7-edge core into
        # the two width-3 triangles either way; the catalog-aware score must
        # still agree with the static winner's width while ranking by rows.
        first = Hypergraph([frozenset({"X0", "X1"}), frozenset({"X1", "X2"}),
                            frozenset({"X0", "X2"})])
        schema = DatabaseSchema.from_hypergraph(first)
        database = generate_database(schema, universe_rows=9, domain_size=3, seed=1)
        catalog = database.statistics_catalog()
        cover = select_cover(enumerate_covers(first), catalog)
        assert cover.covers(first)
        score = cover_score(cover, catalog=catalog)
        assert score[0] == cover.width
        assert isinstance(score[1], int)  # the estimated-cardinality tie-break
