"""Property-based equivalence: the cyclic engine vs the naive join plan.

For randomly generated *cyclic* hypergraphs (planted-ring construction) and
synthetic databases with dangling tuples, the cyclic engine's answer must be
bit-identical to the naive plan — full join and projected alike, with the
static cover and with the one each database's catalog chooses — and the
chosen cover must always produce an acyclic quotient.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.acyclicity import is_acyclic
from repro.core.nodes import sorted_nodes
from repro.engine import EngineSession, enumerate_covers, select_cover
from repro.generators import generate_database, random_cyclic_hypergraph
from repro.relational import DatabaseSchema, execute_plan, naive_join_plan, project

COMMON_SETTINGS = settings(max_examples=20, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


@st.composite
def cyclic_databases(draw):
    """A random cyclic database: planted-ring schema + synthetic dirty instance."""
    num_edges = draw(st.integers(min_value=3, max_value=6))
    schema_seed = draw(st.integers(min_value=0, max_value=200))
    data_seed = draw(st.integers(min_value=0, max_value=200))
    dangling = draw(st.sampled_from([0.0, 0.3, 0.8]))
    hypergraph = random_cyclic_hypergraph(num_edges, max_arity=3, seed=schema_seed)
    schema = DatabaseSchema.from_hypergraph(hypergraph)
    return generate_database(schema, universe_rows=10, domain_size=3,
                             dangling_fraction=dangling, seed=data_seed)


def _cyclic_run(database, wanted, adaptive):
    """One cyclic-subsystem run; its plan's quotient must be acyclic."""
    result = EngineSession(adaptive=adaptive, force_cyclic=True).prepare(
        database, wanted).execute(database)
    assert is_acyclic(result.plan.quotient.hypergraph)
    return result


@pytest.mark.slow
@pytest.mark.parametrize("adaptive", [False, True], ids=["static", "adaptive"])
@COMMON_SETTINGS
@given(database=cyclic_databases())
def test_cyclic_engine_matches_naive_full_join(database, adaptive):
    engine_result = _cyclic_run(database, None, adaptive)
    naive_result, _ = execute_plan(naive_join_plan(database), plan_name="naive")
    assert frozenset(engine_result.relation.rows) == frozenset(naive_result.rows)


@pytest.mark.slow
@pytest.mark.parametrize("adaptive", [False, True], ids=["static", "adaptive"])
@COMMON_SETTINGS
@given(database=cyclic_databases(), selector=st.integers(min_value=0, max_value=10 ** 6))
def test_cyclic_engine_matches_naive_projection(database, selector, adaptive):
    attributes = sorted_nodes(database.schema.attributes)
    size = 1 + selector % len(attributes)
    wanted = attributes[:size]
    engine_result = _cyclic_run(database, wanted, adaptive)
    naive_result, _ = execute_plan(naive_join_plan(database), plan_name="naive")
    expected = project(naive_result, wanted)
    assert frozenset(engine_result.relation.rows) == frozenset(expected.rows)


@pytest.mark.slow
@COMMON_SETTINGS
@given(seed=st.integers(min_value=0, max_value=500),
       num_edges=st.integers(min_value=3, max_value=7))
def test_chosen_cover_quotient_is_always_acyclic(seed, num_edges):
    hypergraph = random_cyclic_hypergraph(num_edges, max_arity=3, seed=seed)
    cover = select_cover(enumerate_covers(hypergraph))
    assert cover.covers(hypergraph)
    assert not cover.is_trivial
    assert is_acyclic(cover.quotient_hypergraph())
