"""Property-based concurrency equivalence: parallel execute_many vs serial.

The execution pool only changes *where* runs happen, never what they
compute: on any random skewed database — acyclic or cyclic — a concurrent
``execute_many`` over the same databases must
be byte-identical to the serial loop, run for run: same rows, same
attributes, same per-run output sizes.  The batches deliberately repeat one
database so concurrent runs race on the same cached blocks, derived key
sets and interner generation.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import EngineSession
from repro.service.pool import ExecutionPool

from .strategies import skewed_acyclic_databases, skewed_cyclic_databases

COMMON_SETTINGS = settings(max_examples=15, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])

WORKERS = 8
REPEATS = 6


def _assert_batches_identical(serial, parallel):
    assert len(serial.results) == len(parallel.results)
    for left, right in zip(serial.relations, parallel.relations):
        assert frozenset(left.rows) == frozenset(right.rows)
        assert left.schema.attribute_set == right.schema.attribute_set
    assert [run.statistics.output_size for run in serial.results] \
        == [run.statistics.output_size for run in parallel.results]


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_acyclic_databases())
def test_concurrent_acyclic_batches_are_byte_identical(database):
    session = EngineSession()
    prepared = session.prepare(database)
    databases = [database] * REPEATS
    serial = prepared.execute_many(databases)
    with ExecutionPool(max_workers=WORKERS) as pool:
        parallel = prepared.execute_many(databases, pool=pool)
    _assert_batches_identical(serial, parallel)


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_cyclic_databases())
def test_concurrent_cyclic_batches_are_byte_identical(database):
    session = EngineSession()
    prepared = session.prepare(database)
    databases = [database] * REPEATS
    serial = prepared.execute_many(databases)
    with ExecutionPool(max_workers=WORKERS) as pool:
        parallel = prepared.execute_many(databases, pool=pool)
    _assert_batches_identical(serial, parallel)


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_acyclic_databases(),
       adaptive=st.booleans())
def test_adaptive_or_static_batches_are_byte_identical(database, adaptive):
    prepared = EngineSession(adaptive=adaptive).prepare(database)
    serial = prepared.execute_many([database] * 3)
    with ExecutionPool(max_workers=4) as pool:
        parallel = prepared.execute_many([database] * 3, pool=pool)
    _assert_batches_identical(serial, parallel)
