"""Property-based equivalence: the semijoin engine vs the naive join plan.

For randomly generated acyclic schemas and databases (with dangling tuples),
the engine's answer must be bit-identical to ``execute_plan`` over the naive
plan — full join and projected alike — and the reducer must leave a database
whose intermediates obey the output + reduced-input bound.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.nodes import sorted_nodes
from repro.engine import EngineSession
from repro.generators import generate_database, random_acyclic_hypergraph
from repro.relational import DatabaseSchema, execute_plan, naive_join_plan, project

COMMON_SETTINGS = settings(max_examples=20, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


@st.composite
def acyclic_databases(draw):
    """A random acyclic database: generated schema + synthetic dirty instance."""
    num_edges = draw(st.integers(min_value=1, max_value=5))
    schema_seed = draw(st.integers(min_value=0, max_value=200))
    data_seed = draw(st.integers(min_value=0, max_value=200))
    dangling = draw(st.sampled_from([0.0, 0.3, 0.8]))
    hypergraph = random_acyclic_hypergraph(num_edges, max_arity=3, seed=schema_seed)
    schema = DatabaseSchema.from_hypergraph(hypergraph)
    return generate_database(schema, universe_rows=12, domain_size=3,
                             dangling_fraction=dangling, seed=data_seed)


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=acyclic_databases())
def test_engine_matches_naive_full_join(database):
    engine_result = EngineSession(adaptive=False).prepare(database).execute(database)
    naive_result, _ = execute_plan(naive_join_plan(database), plan_name="naive")
    assert frozenset(engine_result.relation.rows) == frozenset(naive_result.rows)


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=acyclic_databases(), selector=st.integers(min_value=0, max_value=10 ** 6))
def test_engine_matches_naive_projection(database, selector):
    attributes = sorted_nodes(database.schema.attributes)
    size = 1 + selector % len(attributes)
    wanted = attributes[:size]
    engine_result = EngineSession(adaptive=False).prepare(database, wanted) \
        .execute(database)
    naive_result, _ = execute_plan(naive_join_plan(database), plan_name="naive")
    expected = project(naive_result, wanted)
    assert frozenset(engine_result.relation.rows) == frozenset(expected.rows)


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=acyclic_databases())
def test_engine_intermediates_respect_the_bound(database):
    stats = EngineSession(adaptive=False).prepare(database).execute(database) \
        .statistics
    assert stats.max_intermediate <= stats.output_size + stats.max_reduced_input
