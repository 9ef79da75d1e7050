"""Unit tests for the cyclic engine's end-to-end evaluation."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.engine import EngineSession, QueryPlanner, clear_column_caches
from repro.engine.cyclic import executor as cyclic_executor
from repro.exceptions import ClusterBoundExceededError, SchemaError
from repro.generators import (
    generate_database,
    k_cycle_hypergraph,
    triangle_core_chain,
    university_schema,
)
from repro.relational import (
    DatabaseSchema,
    execute_plan,
    join_all,
    naive_join_plan,
    project,
)
from repro.telemetry import Tracer, use_tracer


def cyclic_join(database, outputs=None, *, planner=None, name=None, **options):
    """A cyclic-subsystem run over ``database`` (static unless ``adaptive=True``)."""
    options.setdefault("adaptive", False)
    session = EngineSession(planner, force_cyclic=True, **options)
    return session.prepare(database, outputs, name=name).execute(database)


@pytest.fixture(scope="module")
def triangle_chain_db():
    """The acceptance-shape instance: a chain with a triangle core, 60% dangling."""
    hypergraph = triangle_core_chain(4)
    schema = DatabaseSchema.from_hypergraph(hypergraph)
    return generate_database(schema, universe_rows=60, domain_size=4,
                             dangling_fraction=0.6, seed=11)


@pytest.fixture(scope="module")
def triangle_db():
    schema = DatabaseSchema.from_hypergraph(k_cycle_hypergraph(3))
    return generate_database(schema, universe_rows=18, domain_size=3,
                             dangling_fraction=0.4, seed=7)


@pytest.fixture(scope="module")
def benchmark_shaped_db():
    """The benchmark's cyclic shape, scaled down: the triangle's first join
    probes far more pairs than survive the projection onto ``C0``."""
    schema = DatabaseSchema.from_hypergraph(triangle_core_chain(4))
    return generate_database(schema, universe_rows=200, domain_size=8,
                             dangling_fraction=0.5, seed=4)


class TestEquivalence:
    def test_full_join_matches_naive(self, triangle_db):
        result = cyclic_join(triangle_db)
        naive, _ = execute_plan(naive_join_plan(triangle_db), plan_name="naive")
        assert frozenset(result.relation.rows) == frozenset(naive.rows)

    def test_projection_matches_naive(self, triangle_chain_db):
        endpoints = ("C0", "C5")
        result = cyclic_join(triangle_chain_db, endpoints)
        naive, _ = execute_plan(naive_join_plan(triangle_chain_db), plan_name="naive")
        expected = project(naive, endpoints)
        assert frozenset(result.relation.rows) == frozenset(expected.rows)
        assert result.relation.schema.attribute_set == frozenset(endpoints)

    def test_acyclic_schema_degenerates_gracefully(self):
        db = generate_database(university_schema(), universe_rows=20,
                               domain_size=5, dangling_fraction=0.5, seed=4)
        result = cyclic_join(db)
        naive, _ = execute_plan(naive_join_plan(db), plan_name="naive")
        assert result.plan.is_trivial
        assert frozenset(result.relation.rows) == frozenset(naive.rows)


class TestAcceptanceShape:
    def test_largest_intermediate_at_least_5x_smaller_than_naive(self, triangle_chain_db):
        endpoints = ("C0", "C5")
        result = cyclic_join(triangle_chain_db, endpoints)
        _, naive_stats = execute_plan(naive_join_plan(triangle_chain_db),
                                      plan_name="naive")
        assert result.statistics.max_intermediate * 5 <= naive_stats.max_intermediate
        assert result.statistics.savings_versus(naive_stats) >= 5.0

    def test_statistics_report_clusters(self, triangle_chain_db):
        result = cyclic_join(triangle_chain_db)
        stats = result.statistics
        assert stats.plan_name == "engine-cyclic"
        assert len(stats.cluster_sizes) == len(result.plan.clusters)
        assert stats.cluster_widths == tuple(c.width for c in result.plan.clusters)
        assert stats.max_cluster_size == max(stats.cluster_sizes)
        assert "clusters=" in stats.describe()

    def test_reduction_removes_dangling_cluster_tuples(self, triangle_chain_db):
        result = cyclic_join(triangle_chain_db)
        assert result.statistics.rows_removed_by_reduction > 0
        assert result.statistics.semijoin_steps > 0

    def test_reduction_ratio_is_a_fraction_of_cluster_tuples(self, triangle_chain_db):
        # The reducer runs on the materialised clusters, so the ratio must be
        # removed / cluster tuples — and in particular never exceed 1, which
        # the inherited input-sizes denominator would allow.
        stats = cyclic_join(triangle_chain_db).statistics
        assert 0.0 < stats.reduction_ratio <= 1.0
        expected = stats.rows_removed_by_reduction / sum(stats.cluster_sizes)
        assert stats.reduction_ratio == pytest.approx(expected)


class TestPlanCache:
    def test_plan_reused_across_equivalent_cyclic_schemas(self, triangle_db):
        planner = QueryPlanner()
        first = cyclic_join(triangle_db, planner=planner)
        misses = planner.cache_info().misses
        assert misses >= 1
        # A structurally identical database (different instance, same schema).
        other = generate_database(DatabaseSchema.from_hypergraph(k_cycle_hypergraph(3)),
                                  universe_rows=9, domain_size=3, seed=99)
        second = cyclic_join(other, planner=planner)
        assert planner.cache_info().misses == misses
        assert second.plan is first.plan

    def test_cyclic_and_quotient_plans_share_the_lru(self, triangle_db):
        planner = QueryPlanner()
        cyclic_join(triangle_db, planner=planner)
        info = planner.cache_info()
        # One cyclic plan plus the embedded quotient's acyclic plan.
        assert info.size == 2

    def test_tiny_cache_does_not_thrash(self, triangle_db):
        # The executor runs the quotient off the embedded inner plan (no
        # second planner lookup), so even a capacity-1 LRU keeps serving
        # cache hits for a single cyclic workload.
        planner = QueryPlanner(capacity=1)
        cyclic_join(triangle_db, planner=planner)
        misses_after_first = planner.cache_info().misses
        cyclic_join(triangle_db, planner=planner)
        assert planner.cache_info().misses == misses_after_first


class TestValidation:
    def test_no_relations_rejected(self):
        with pytest.raises(SchemaError):
            EngineSession(force_cyclic=True).prepare([])

    def test_unknown_output_attribute_rejected(self, triangle_db):
        with pytest.raises(SchemaError):
            cyclic_join(triangle_db, ("NOPE",))

    def test_unknown_output_attribute_rejected_over_relations(self, triangle_db):
        with pytest.raises(SchemaError, match="not in the schema"):
            EngineSession(force_cyclic=True).execute_join(triangle_db.relations(),
                                                          ("R0", "NOPE"))

    def test_plan_for_another_schema_rejected(self, triangle_db, triangle_chain_db):
        session = EngineSession(adaptive=False, force_cyclic=True)
        other = session.prepare(triangle_chain_db)
        with pytest.raises(SchemaError, match="different schema fingerprint"):
            other.execute_relations(triangle_db.relations())
        own = session.prepare(triangle_db.relations())
        supplied = own.execute_relations(triangle_db.relations())
        assert supplied.plan is own.structure
        assert supplied.relation == EngineSession(force_cyclic=True).execute_join(
            triangle_db.relations()).relation

    def test_cluster_row_bound_propagates(self, triangle_db):
        with pytest.raises(ClusterBoundExceededError):
            cyclic_join(triangle_db, cluster_row_bound=1)

    def test_result_relation_is_named(self, triangle_db):
        result = cyclic_join(triangle_db, name="windows")
        assert result.relation.name == "windows"

    def test_plan_describe_mentions_clusters(self, triangle_db):
        result = cyclic_join(triangle_db)
        text = result.plan.describe()
        assert "CyclicExecutionPlan" in text and "clusters" in text


class TestClusterExports:
    """A multi-member cluster exports only outputs ∪ what other clusters share."""

    TRIANGLE = ("C0", "T1", "T2")

    def test_projected_cluster_keeps_its_articulation_set(self, benchmark_shaped_db):
        # Asking for the triangle's own attributes keeps its whole scheme.
        whole = cyclic_join(benchmark_shaped_db, self.TRIANGLE,
                                         adaptive=True)
        projected = cyclic_join(benchmark_shaped_db, ("C0", "C5"),
                                             adaptive=True)
        core = next(index for index, cluster in enumerate(projected.plan.clusters)
                    if not cluster.is_singleton)
        sizes = projected.statistics.cluster_sizes
        assert sizes[core] < whole.statistics.cluster_sizes[core]
        assert sizes[:core] + sizes[core + 1:] == (
            whole.statistics.cluster_sizes[:core]
            + whole.statistics.cluster_sizes[core + 1:])
        triangle = join_all([relation for relation in benchmark_shaped_db.relations()
                             if relation.schema.attribute_set <= frozenset(self.TRIANGLE)])
        assert sizes[core] == len(project(triangle, ("C0",)))

    @pytest.mark.parametrize("outputs", [None, ("C0", "C5")])
    def test_row_bound_guards_the_probe_not_the_leftovers(self, benchmark_shaped_db,
                                                          outputs):
        unprojected = cyclic_join(benchmark_shaped_db, self.TRIANGLE,
                                               adaptive=True)
        probe = max(unprojected.statistics.intermediate_sizes[:2])
        with pytest.raises(ClusterBoundExceededError, match="C0, T1"):
            cyclic_join(benchmark_shaped_db, outputs, adaptive=True,
                                     cluster_row_bound=probe - 1)
        bounded = cyclic_join(benchmark_shaped_db, ("C0", "C5"),
                                           adaptive=True, cluster_row_bound=probe)
        assert 0 < bounded.statistics.intermediate_sizes[0] <= probe


class TestWarmMemo:
    def test_alternating_output_sets_both_stay_warm(self, benchmark_shaped_db,
                                                    monkeypatch):
        annotations = []
        real_annotate = cyclic_executor.annotate_plan

        def counting_annotate(*args, **kwargs):
            annotations.append(kwargs.get("output_attributes"))
            return real_annotate(*args, **kwargs)

        monkeypatch.setattr(cyclic_executor, "annotate_plan", counting_annotate)
        session = EngineSession(adaptive=True)
        queries = [session.prepare(benchmark_shaped_db, outputs)
                   for outputs in (("C0", "C5"), ("C1", "C5"))]
        answers = [query.execute(benchmark_shaped_db).relation for query in queries]
        first_round = len(annotations)  # one per query
        assert first_round >= 2
        for _ in range(3):
            for query, answer in zip(queries, answers):
                tracer = Tracer()
                with use_tracer(tracer):
                    result = query.execute(benchmark_shaped_db)
                # Served from its binding's outcome: nothing materialises,
                # so no materialise span opens.
                assert result.statistics.served
                assert not [record for record in tracer.records
                            if record["name"] == "materialise"]
                assert result.relation == answer
        assert len(annotations) == first_round

    def test_dropped_database_is_freed(self):
        # The warm memo lives on the prepared query's per-database binding,
        # so nothing process-wide keeps a dropped database's relations.
        schema = DatabaseSchema.from_hypergraph(triangle_core_chain(3))
        database = generate_database(schema, universe_rows=30, domain_size=4,
                                     seed=5)
        session = EngineSession(adaptive=True)
        session.prepare(database, ("C0", "C4")).execute(database)
        relation = weakref.ref(database.relations()[0])
        del session, database
        clear_column_caches()
        gc.collect()
        assert relation() is None
