"""Property-based equivalence: adaptive (catalog-annotated) plans vs static plans.

Adaptive planning only reorders work — root choice, sibling semijoin order,
child fold order, intra-cluster join order — so on any database, skewed or
not, the adaptive answer must be byte-identical to the static one: same rows,
same schema attributes.  The databases here are made deliberately skewed by
thinning each relation to a different random fraction, which is exactly the
shape that makes the orders diverge.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.nodes import sorted_nodes
from repro.engine import EngineSession, QueryPlanner
from repro.generators import cyclic_workload_families, generate_database
from repro.relational import DatabaseSchema, Relation

from .strategies import skew_database as _skewed, skewed_acyclic_databases

COMMON_SETTINGS = settings(max_examples=20, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


def _run(database, outputs=None, *, adaptive=False, force_cyclic=False):
    """One engine run on a fresh planner, static unless ``adaptive``."""
    session = EngineSession(QueryPlanner(), adaptive=adaptive,
                            force_cyclic=force_cyclic)
    return session.prepare(database, outputs).execute(database)


def _assert_identical(left: Relation, right: Relation):
    assert frozenset(left.rows) == frozenset(right.rows)
    assert left.schema.attribute_set == right.schema.attribute_set


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_acyclic_databases())
def test_adaptive_full_join_is_byte_identical(database):
    static = _run(database)
    adaptive = _run(database, adaptive=True)
    assert adaptive.statistics.adaptive and not static.statistics.adaptive
    _assert_identical(adaptive.relation, static.relation)


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_acyclic_databases(),
       selector=st.integers(min_value=0, max_value=10 ** 6))
def test_adaptive_projection_is_byte_identical(database, selector):
    attributes = sorted_nodes(database.schema.attributes)
    size = 1 + selector % len(attributes)
    wanted = attributes[:size]
    static = _run(database, wanted)
    adaptive = _run(database, wanted, adaptive=True)
    _assert_identical(adaptive.relation, static.relation)


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_acyclic_databases())
def test_adaptive_intermediates_respect_the_bound(database):
    stats = _run(database, adaptive=True).statistics
    assert stats.max_intermediate <= stats.output_size + stats.max_reduced_input


@pytest.mark.slow
@COMMON_SETTINGS
@given(family=st.sampled_from([name for name, _ in cyclic_workload_families()]),
       data_seed=st.integers(min_value=0, max_value=100),
       skew_seed=st.integers(min_value=0, max_value=100))
def test_adaptive_cyclic_is_byte_identical(family, data_seed, skew_seed):
    hypergraph = dict(cyclic_workload_families())[family]
    schema = DatabaseSchema.from_hypergraph(hypergraph)
    database = _skewed(generate_database(schema, universe_rows=12, domain_size=3,
                                         dangling_fraction=0.3, seed=data_seed),
                       skew_seed)
    static = _run(database, force_cyclic=True)
    adaptive = _run(database, adaptive=True, force_cyclic=True)
    assert adaptive.statistics.adaptive
    _assert_identical(adaptive.relation, static.relation)
