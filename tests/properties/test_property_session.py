"""Property-based equivalence: prepared session execution vs the reference joins.

The session resolves dispatch at prepare time and memoizes annotations per
database, so on any workload, acyclic or cyclic, adaptive or static, cold or
warm, ``PreparedQuery.execute`` must be byte-identical to the independent
:mod:`repro.relational` implementations — :func:`~repro.relational.yannakakis_join`
for acyclic schemas, :func:`~repro.relational.naive_join` for cyclic ones:
same rows, same schema attributes.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.nodes import sorted_nodes
from repro.engine import EngineSession
from repro.relational import Relation, naive_join, yannakakis_join

from .strategies import (
    skew_database as _skewed,
    skewed_acyclic_databases,
    skewed_cyclic_databases,
)

COMMON_SETTINGS = settings(max_examples=20, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


def _assert_identical(left: Relation, right: Relation):
    assert frozenset(left.rows) == frozenset(right.rows)
    assert left.schema.attribute_set == right.schema.attribute_set


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_acyclic_databases(),
       adaptive=st.booleans())
def test_prepared_acyclic_is_byte_identical_to_legacy(database, adaptive):
    session = EngineSession(adaptive=adaptive)
    prepared = session.prepare(database)
    result = prepared.execute(database)
    again = prepared.execute(database)
    legacy = yannakakis_join(database)
    assert result.statistics.adaptive is adaptive
    _assert_identical(result.relation, legacy.relation)
    _assert_identical(again.relation, legacy.relation)


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_acyclic_databases(),
       selector=st.integers(min_value=0, max_value=10 ** 6))
def test_prepared_acyclic_projection_is_byte_identical(database, selector):
    attributes = sorted_nodes(database.schema.attributes)
    size = 1 + selector % len(attributes)
    wanted = attributes[:size]
    result = EngineSession().prepare(database, wanted).execute(database)
    legacy = yannakakis_join(database, wanted)
    _assert_identical(result.relation, legacy.relation)


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_cyclic_databases(),
       adaptive=st.booleans())
def test_prepared_cyclic_is_byte_identical_to_legacy(database, adaptive):
    session = EngineSession(adaptive=adaptive)
    prepared = session.prepare(database)
    assert prepared.kind == "cyclic"
    result = prepared.execute(database)
    again = prepared.execute(database)
    legacy, _ = naive_join(database)
    _assert_identical(result.relation, legacy)
    _assert_identical(again.relation, legacy)


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_acyclic_databases())
def test_execute_many_agrees_with_singleton_executes(database):
    variant = _skewed(database, seed=99)
    session = EngineSession()
    prepared = session.prepare(database)
    batch = prepared.execute_many([database, variant, database])
    _assert_identical(batch.results[0].relation, batch.results[2].relation)
    single = prepared.execute(variant)
    _assert_identical(batch.results[1].relation, single.relation)
    assert batch.statistics.output_size == sum(
        run.output_size for run in batch.statistics.runs)
