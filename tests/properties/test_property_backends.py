"""Property-based equivalence across typed column-buffer backends.

The typed-storage layer separates *state* (interned ``array('q')`` id
columns, canonical selection vectors) from *compute* (the
:mod:`~repro.engine.columnar.buffers` backend the kernels batch through).
Two invariants follow, and this suite holds both on random skewed acyclic
and cyclic databases:

* the always-available pure-Python ``array`` backend answers exactly like
  the :mod:`repro.relational` reference (``yannakakis_join`` for acyclic
  schemas, ``naive_join`` for cyclic ones);
* the optional ``numpy`` backend is byte-identical — rows, schema
  attribute order, and all logical accounting (intermediate sizes,
  semijoin steps, reduced sizes) — to the ``array`` backend (checked only where numpy is installed; the CI matrix runs the
  suite both with and without it).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import EngineSession
from repro.engine.columnar import available_column_backends
from repro.relational import Relation, naive_join, yannakakis_join

from .strategies import skewed_acyclic_databases, skewed_cyclic_databases

COMMON_SETTINGS = settings(max_examples=20, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])

NUMPY_INSTALLED = "numpy" in available_column_backends()

needs_numpy = pytest.mark.skipif(not NUMPY_INSTALLED,
                                 reason="numpy backend not installed")


def _assert_byte_identical(left: Relation, right: Relation):
    assert frozenset(left.rows) == frozenset(right.rows)
    assert left.schema.attributes == right.schema.attributes
    assert left.name == right.name


def _assert_accounting_matches(left, right):
    assert left.intermediate_sizes == right.intermediate_sizes
    assert left.semijoin_steps == right.semijoin_steps
    assert left.reduced_sizes == right.reduced_sizes
    assert left.rows_removed_by_reduction == right.rows_removed_by_reduction
    assert left.output_size == right.output_size


def _run(database, *, backend=None, adaptive=False):
    session = EngineSession(column_backend=backend, adaptive=adaptive)
    return session.prepare(database).execute(database)


# --------------------------------------------------------------------------- #
# array backend vs the relational reference
# --------------------------------------------------------------------------- #
@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_acyclic_databases(), adaptive=st.booleans())
def test_array_backend_matches_the_reference_acyclic(database, adaptive):
    typed = _run(database, backend="array", adaptive=adaptive)
    assert typed.statistics.column_backend == "array"
    assert typed.relation.rows == yannakakis_join(database).relation.rows


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_cyclic_databases(), adaptive=st.booleans())
def test_array_backend_matches_the_reference_cyclic(database, adaptive):
    typed = _run(database, backend="array", adaptive=adaptive)
    assert typed.statistics.column_backend == "array"
    assert typed.relation.rows == naive_join(database)[0].rows


# --------------------------------------------------------------------------- #
# numpy backend vs the array backend (when installed)
# --------------------------------------------------------------------------- #
@needs_numpy
@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_acyclic_databases(), adaptive=st.booleans())
def test_numpy_backend_matches_array_backend_acyclic(database, adaptive):
    array_result = _run(database, backend="array", adaptive=adaptive)
    numpy_result = _run(database, backend="numpy", adaptive=adaptive)
    assert numpy_result.statistics.column_backend == "numpy"
    _assert_byte_identical(numpy_result.relation, array_result.relation)
    _assert_accounting_matches(numpy_result.statistics,
                               array_result.statistics)


@needs_numpy
@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_cyclic_databases(), adaptive=st.booleans())
def test_numpy_backend_matches_array_backend_cyclic(database, adaptive):
    array_result = _run(database, backend="array", adaptive=adaptive)
    numpy_result = _run(database, backend="numpy", adaptive=adaptive)
    assert numpy_result.statistics.column_backend == "numpy"
    _assert_byte_identical(numpy_result.relation, array_result.relation)
    _assert_accounting_matches(numpy_result.statistics,
                               array_result.statistics)


# --------------------------------------------------------------------------- #
# decode="block" defers, never changes, the answer
# --------------------------------------------------------------------------- #
@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_acyclic_databases())
def test_block_decode_defers_identical_relation(database):
    eager = _run(database, backend="array")
    session = EngineSession(column_backend="array",
                            decode="block", adaptive=False)
    deferred = session.prepare(database).execute(database)
    assert deferred.relation is None
    assert deferred.statistics.output_size == eager.statistics.output_size
    _assert_byte_identical(deferred.decoded(), eager.relation)
