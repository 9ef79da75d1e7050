"""Unit tests for plan objects, schema fingerprints and the LRU plan cache."""

from __future__ import annotations

import pytest

from repro.core.hypergraph import Hypergraph
from repro.engine import PlanCacheInfo
from repro.engine.planner import (
    EngineStatistics,
    QueryPlanner,
    fingerprint_digest,
    schema_fingerprint,
)
from repro.exceptions import CyclicHypergraphError
from repro.generators import (
    cyclic_supplier_schema,
    k_cycle_hypergraph,
    random_acyclic_hypergraph,
    triangle_core_chain,
    university_schema,
)


class TestFingerprint:
    def test_invariant_under_edge_order(self):
        left = Hypergraph.from_compact(["ABC", "CDE"])
        right = Hypergraph.from_compact(["CDE", "ABC"])
        assert schema_fingerprint(left) == schema_fingerprint(right)

    def test_invariant_under_duplicate_edges(self):
        assert schema_fingerprint([{"A", "B"}, {"A", "B"}, {"B", "C"}]) \
            == schema_fingerprint([{"B", "C"}, {"A", "B"}])

    def test_distinguishes_different_schemas(self):
        assert schema_fingerprint([{"A", "B"}]) != schema_fingerprint([{"A", "C"}])

    def test_database_schema_and_hypergraph_agree(self):
        schema = university_schema()
        assert schema_fingerprint(schema) == schema_fingerprint(schema.to_hypergraph())

    def test_digest_is_short_and_stable(self):
        fingerprint = schema_fingerprint([{"A", "B"}])
        assert fingerprint_digest(fingerprint) == fingerprint_digest(fingerprint)
        assert len(fingerprint_digest(fingerprint)) == 12


class TestPlanner:
    def test_repeated_schemas_skip_recomputation(self):
        planner = QueryPlanner()
        hypergraph = university_schema().to_hypergraph()
        first = planner.plan_for(hypergraph)
        second = planner.plan_for(hypergraph)
        assert first is second
        info = planner.cache_info()
        assert info.hits == 1 and info.misses == 1 and info.size == 1

    def test_equivalent_hypergraph_objects_share_a_plan(self):
        planner = QueryPlanner()
        first = planner.plan_for(Hypergraph.from_compact(["ABC", "BCD"]))
        second = planner.plan_for(Hypergraph.from_compact(["BCD", "ABC"]))
        assert first is second

    def test_lru_eviction_respects_capacity(self):
        planner = QueryPlanner(capacity=2)
        graphs = [random_acyclic_hypergraph(4, seed=seed) for seed in range(3)]
        for graph in graphs:
            planner.plan_for(graph)
        assert planner.cache_info().size == 2
        # The oldest plan (seed 0) was evicted; re-planning it is a miss.
        planner.plan_for(graphs[0])
        assert planner.cache_info().misses == 4

    def test_recently_used_plan_survives_eviction(self):
        planner = QueryPlanner(capacity=2)
        graphs = [random_acyclic_hypergraph(4, seed=seed) for seed in range(3)]
        planner.plan_for(graphs[0])
        planner.plan_for(graphs[1])
        planner.plan_for(graphs[0])  # refresh 0; 1 becomes LRU
        planner.plan_for(graphs[2])  # evicts 1
        hits_before = planner.cache_info().hits
        planner.plan_for(graphs[0])
        assert planner.cache_info().hits == hits_before + 1

    def test_cyclic_schema_cannot_be_planned(self):
        planner = QueryPlanner()
        with pytest.raises(CyclicHypergraphError):
            planner.plan_for(cyclic_supplier_schema().to_hypergraph())
        # The failed join-tree lookup compiled nothing, so it counts no miss.
        info = planner.cache_info()
        assert (info.misses, info.size) == (0, 0)

    def test_roots_are_cached_separately(self):
        planner = QueryPlanner()
        hypergraph = Hypergraph.from_compact(["ABC", "BCD"])
        default = planner.plan_for(hypergraph)
        rooted = planner.plan_for(hypergraph, root=frozenset("BCD"))
        assert default is not rooted
        assert rooted.rooted.roots[0] == frozenset("BCD")

    def test_plan_describe_mentions_fingerprint_and_steps(self):
        planner = QueryPlanner()
        plan = planner.plan_for(university_schema().to_hypergraph())
        text = plan.describe()
        assert "ExecutionPlan" in text and "semijoin steps" in text

    def test_clear_drops_plans_and_keeps_counts(self):
        planner = QueryPlanner()
        planner.plan_for(university_schema().to_hypergraph())
        before = planner.cache_info()
        planner.clear()
        info = planner.cache_info()
        assert info.size == 0 and before.size > 0
        assert (info.hits, info.misses) == (before.hits, before.misses)
        planner.plan_for(university_schema().to_hypergraph())
        assert planner.cache_info().misses == before.misses + 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryPlanner(capacity=0)


class TestReplanning:
    """A plan depends only on the schema's hypergraph: a fresh planner rebuilds it."""

    def test_fresh_planner_holds_no_plans(self):
        assert QueryPlanner().cache_info() == PlanCacheInfo(hits=0, misses=0, size=0,
                                                            capacity=128)

    def test_fresh_planner_rebuilds_an_equal_acyclic_plan(self):
        hypergraph = university_schema().to_hypergraph()
        first = QueryPlanner().plan_for(hypergraph)
        rebuilt = QueryPlanner().plan_for(hypergraph)
        assert rebuilt is not first
        assert rebuilt == first
        assert rebuilt.describe() == first.describe()

    def test_fresh_planner_rebuilds_a_pinned_root(self):
        hypergraph = Hypergraph.from_compact(["ABC", "BCD"])
        first = QueryPlanner().plan_for(hypergraph, root=frozenset("BCD"))
        rebuilt = QueryPlanner().plan_for(hypergraph, root=frozenset("BCD"))
        assert rebuilt == first
        assert rebuilt.root == rebuilt.rooted.roots[0] == frozenset("BCD")

    def test_fresh_planner_rebuilds_an_equal_cyclic_plan(self):
        first = QueryPlanner().cyclic_plan_for(triangle_core_chain(3))
        rebuilt = QueryPlanner().cyclic_plan_for(triangle_core_chain(3))
        assert rebuilt is not first
        assert rebuilt == first
        assert (rebuilt.cover, rebuilt.inner) == (first.cover, first.inner)

    def test_cyclic_plan_caches_its_quotient_plan(self):
        planner = QueryPlanner()
        plan = planner.cyclic_plan_for(k_cycle_hypergraph(3))
        # The static cyclic plan and its quotient's inner plan.
        assert planner.cache_info().size == 2
        hits_before = planner.cache_info().hits
        assert planner.plan_for(plan.quotient.hypergraph) is plan.inner
        assert planner.cache_info().hits == hits_before + 1

    def test_equivalent_cyclic_hypergraphs_share_a_plan(self):
        planner = QueryPlanner()
        first = planner.cyclic_plan_for(k_cycle_hypergraph(3))
        before = planner.cache_info()
        second = planner.cyclic_plan_for(
            Hypergraph([["R0", "R1"], ["R1", "R2"], ["R0", "R2"]]))
        assert second is first
        info = planner.cache_info()
        assert (info.hits, info.misses, info.size) \
            == (before.hits + 1, before.misses, before.size)

    def test_tuple_valued_nodes_are_cached_and_rebuilt(self):
        hypergraph = Hypergraph([frozenset({("a", 1), ("b", 2)}),
                                 frozenset({("b", 2), ("c", 3)})])
        planner = QueryPlanner()
        first = planner.plan_for(hypergraph)
        assert planner.plan_for(hypergraph) is first
        info = planner.cache_info()
        assert (info.hits, info.misses, info.size) == (1, 1, 1)
        assert QueryPlanner().plan_for(hypergraph) == first


class TestEngineStatistics:
    def test_extends_join_statistics(self):
        stats = EngineStatistics(plan_name="engine", input_sizes=(10, 20),
                                 intermediate_sizes=(5, 3), output_size=3,
                                 semijoin_steps=4, rows_removed_by_reduction=6,
                                 reduced_sizes=(7, 17))
        assert stats.max_intermediate == 5
        assert stats.total_intermediate == 8
        assert stats.max_reduced_input == 17
        assert stats.reduction_ratio == pytest.approx(0.2)
        assert "semijoins=4" in stats.describe()
