"""Property-based equivalence: the engine vs the ``repro.relational`` reference.

The engine's answers — acyclic or cyclic, adaptive or static, projected or
full — must equal the relational reference's row for row:
:func:`~repro.relational.yannakakis_join` for acyclic schemas and
:func:`~repro.relational.naive_join` for cyclic ones.  The reference shares
no code with the engine (``tests/relational/test_independence.py``), so an
agreement here is evidence, not a tautology.  The engine's answer
additionally has its attributes in canonical order under the requested name.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.nodes import sorted_nodes
from repro.engine import EngineSession
from repro.relational import Relation, naive_join, yannakakis_join

from .strategies import skewed_acyclic_databases, skewed_cyclic_databases

COMMON_SETTINGS = settings(max_examples=20, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


def _assert_matches_reference(result, reference: Relation):
    relation = result.relation
    assert frozenset(relation.rows) == frozenset(reference.rows)
    assert relation.schema.attribute_set == reference.schema.attribute_set
    assert relation.schema.attributes == tuple(sorted_nodes(relation.schema.attribute_set))
    assert relation.name == "U"
    assert result.statistics.output_size == len(relation)


def _wanted(database, selector: int):
    attributes = sorted_nodes(database.schema.attributes)
    return attributes[:selector % (len(attributes) + 1)]  # 0 = the boolean query


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_acyclic_databases(), adaptive=st.booleans())
def test_acyclic_answers_match_the_reference(database, adaptive):
    result = EngineSession(adaptive=adaptive).prepare(database).execute(database)
    _assert_matches_reference(result, yannakakis_join(database).relation)


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_acyclic_databases(),
       selector=st.integers(min_value=0, max_value=10 ** 6))
def test_acyclic_projections_match_the_reference(database, selector):
    wanted = _wanted(database, selector)
    result = EngineSession().prepare(database, wanted).execute(database)
    _assert_matches_reference(result, yannakakis_join(database, wanted).relation)


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_cyclic_databases(), adaptive=st.booleans())
def test_cyclic_answers_match_the_reference(database, adaptive):
    prepared = EngineSession(adaptive=adaptive).prepare(database)
    assert prepared.kind == "cyclic"
    result = prepared.execute(database)
    _assert_matches_reference(result, naive_join(database)[0])
    assert len(result.statistics.cluster_sizes) == len(result.plan.clusters)


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_cyclic_databases(),
       selector=st.integers(min_value=0, max_value=10 ** 6))
def test_cyclic_projections_match_the_reference(database, selector):
    wanted = _wanted(database, selector)
    result = EngineSession().prepare(database, wanted).execute(database)
    _assert_matches_reference(result, naive_join(database, wanted)[0])


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_acyclic_databases())
def test_warm_executions_stay_identical(database):
    """Cached blocks and key encodings must not drift across repeated runs."""
    prepared = EngineSession().prepare(database)
    first = prepared.execute(database)
    second = prepared.execute(database)
    assert frozenset(second.relation.rows) == frozenset(first.relation.rows)
    assert second.relation.schema.attributes == first.relation.schema.attributes
    assert second.statistics.intermediate_sizes == first.statistics.intermediate_sizes
    # Warm runs serve every block from the per-relation cache.
    assert second.statistics.index_cache_misses == 0
