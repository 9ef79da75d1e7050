"""Unit and acceptance tests for the end-to-end semijoin execution engine."""

from __future__ import annotations

import pytest

from repro.engine import EngineSession, QueryPlanner
from repro.exceptions import CyclicHypergraphError, SchemaError
from repro.generators import (
    chain_hypergraph,
    cyclic_supplier_schema,
    generate_database,
    random_acyclic_hypergraph,
    university_schema,
)
from repro.relational import (
    DatabaseSchema,
    Relation,
    RelationSchema,
    naive_join,
)
from repro.relational.join_plans import JoinStatistics, execute_plan, naive_join_plan


def engine_join(database, outputs=None, planner=None):
    """A static (non-adaptive) engine run over ``database``'s universal join."""
    return EngineSession(planner, adaptive=False).prepare(database, outputs) \
        .execute(database)


@pytest.fixture
def dirty_db():
    return generate_database(university_schema(), universe_rows=25, domain_size=6,
                             dangling_fraction=0.5, seed=5)


class TestCorrectness:
    def test_full_join_matches_naive(self, dirty_db):
        fast = engine_join(dirty_db)
        slow, _ = naive_join(dirty_db)
        assert frozenset(fast.relation.rows) == frozenset(slow.rows)

    def test_projected_join_matches_naive(self, dirty_db):
        attributes = ("Student", "Teacher")
        fast = engine_join(dirty_db, attributes)
        slow, _ = naive_join(dirty_db, attributes)
        assert frozenset(fast.relation.rows) == frozenset(slow.rows)
        assert fast.relation.schema.attribute_set == frozenset(attributes)

    def test_empty_relation_propagates(self, dirty_db):
        emptied = dirty_db.with_relation(dirty_db["ENROL"].with_rows([]))
        assert len(engine_join(emptied).relation) == 0

    def test_cyclic_schema_rejected(self):
        db = generate_database(cyclic_supplier_schema(), universe_rows=10, seed=1)
        with pytest.raises(CyclicHypergraphError):
            QueryPlanner().plan_for(db.schema.to_hypergraph())
        prepared = EngineSession(adaptive=False).prepare(db)
        assert prepared.kind == "cyclic"
        expected, _ = execute_plan(naive_join_plan(db))
        assert frozenset(prepared.execute(db).relation.rows) \
            == frozenset(expected.rows)

    def test_unknown_output_attribute_rejected(self, dirty_db):
        with pytest.raises(SchemaError):
            engine_join(dirty_db, ("Nope",))

    def test_no_relations_rejected(self):
        with pytest.raises(SchemaError):
            EngineSession().prepare([])

    def test_unknown_output_attribute_rejected_over_relations(self, dirty_db):
        with pytest.raises(SchemaError, match="not in the schema"):
            EngineSession().execute_join(dirty_db.relations(), ("Student", "Nope"))


class TestSuppliedPlanFingerprint:
    """A prepared plan is checked against the relations it is run over."""

    @pytest.fixture
    def chain(self):
        return generate_database(DatabaseSchema.from_hypergraph(
            chain_hypergraph(3, arity=2, overlap=1)), universe_rows=10, seed=2)

    def test_plan_for_another_schema_rejected(self, dirty_db, chain):
        prepared = EngineSession(adaptive=False).prepare(chain)
        with pytest.raises(SchemaError, match="different schema fingerprint"):
            prepared.execute_relations(dirty_db.relations())

    def test_annotated_plan_for_another_schema_rejected(self, dirty_db, chain):
        prepared = EngineSession(adaptive=True).prepare(chain)
        with pytest.raises(SchemaError, match="different schema fingerprint"):
            prepared.execute_relations(dirty_db.relations())
        with pytest.raises(SchemaError, match="different schema fingerprint"):
            prepared.execute(dirty_db)

    def test_matching_plan_accepted(self, dirty_db):
        session = EngineSession(adaptive=False)
        prepared = session.prepare(dirty_db.relations(), ("Student",))
        supplied = prepared.execute_relations(dirty_db.relations())
        planned = session.execute_join(dirty_db.relations(), ("Student",))
        assert supplied.plan is prepared.structure
        assert supplied.relation == planned.relation

    def test_duplicate_schemes_are_intersected(self):
        schema = RelationSchema.of("R", ("A", "B"))
        left = Relation.from_tuples(schema, [(1, 1), (2, 2)])
        right = Relation.from_tuples(schema.rename("S"), [(2, 2), (3, 3)])
        result = EngineSession().execute_join([left, right])
        assert frozenset(tuple(row[a] for a in ("A", "B")) for row in result.relation.rows) \
            == {(2, 2)}

    def test_disconnected_schema_produces_cartesian_product(self):
        r = Relation.from_tuples(RelationSchema.of("R", ("A",)), [(1,), (2,)])
        s = Relation.from_tuples(RelationSchema.of("S", ("B",)), [(10,), (20,), (30,)])
        assert len(EngineSession().execute_join([r, s]).relation) == 6


class TestAccounting:
    def test_statistics_populated(self, dirty_db):
        result = engine_join(dirty_db, ("Student", "Teacher"))
        stats = result.statistics
        assert stats.plan_name == "engine-yannakakis"
        assert stats.output_size == len(result.relation)
        assert len(stats.input_sizes) == len(dirty_db.relations())
        assert stats.semijoin_steps == 2 * (len(result.plan.vertices) - 1)
        assert stats.rows_removed_by_reduction > 0
        assert len(stats.reduced_sizes) == len(result.plan.vertices)

    def test_plan_cache_hit_reported(self, dirty_db):
        planner = QueryPlanner()
        first = engine_join(dirty_db, planner=planner)
        misses = planner.cache_info().misses
        assert misses >= 1
        second = engine_join(dirty_db, planner=planner)
        assert planner.cache_info().misses == misses
        assert first.statistics.plan_cache_hit and second.statistics.plan_cache_hit
        assert first.plan is second.plan

    def test_statistics_compare_with_the_reference_plans(self, dirty_db):
        result = engine_join(dirty_db, ("Student", "Teacher"))
        slow, _ = naive_join(dirty_db, ("Student", "Teacher"))
        assert frozenset(result.relation.rows) == frozenset(slow.rows)
        assert isinstance(result.statistics, JoinStatistics)
        assert result.statistics.plan_name == "engine-yannakakis"


class TestAcceptanceBounds:
    """The ISSUE's acceptance criteria on intermediate sizes."""

    def test_random_acyclic_intermediates_bounded(self):
        """≥ 5 edges, ≥ 100 rows/relation: max intermediate ≤ output + largest reduced input."""
        hypergraph = random_acyclic_hypergraph(6, max_arity=3, seed=3)
        schema = DatabaseSchema.from_hypergraph(hypergraph)
        db = generate_database(schema, universe_rows=150, domain_size=5,
                               dangling_fraction=0.5, seed=7)
        assert len(schema) >= 5
        result = engine_join(db)
        stats = result.statistics
        assert stats.max_intermediate <= stats.output_size + stats.max_reduced_input

    def test_adversarial_chain_beats_naive(self):
        """A Fig.-5-style chain with dangling tuples and endpoint projection:
        the engine's max intermediate is strictly below the naive plan's."""
        hypergraph = chain_hypergraph(6, arity=3, overlap=2)
        schema = DatabaseSchema.from_hypergraph(hypergraph)
        db = generate_database(schema, universe_rows=120, domain_size=4,
                               dangling_fraction=0.8, seed=42)
        assert all(len(relation) >= 95 for relation in db.relations())
        endpoints = ("C0", "C7")
        fast = engine_join(db, endpoints)
        slow, slow_stats = naive_join(db, endpoints)
        assert frozenset(fast.relation.rows) == frozenset(slow.rows)
        stats = fast.statistics
        assert stats.max_intermediate <= stats.output_size + stats.max_reduced_input
        assert stats.max_intermediate < slow_stats.max_intermediate
