"""Property-based: EXPLAIN ANALYZE actuals are an independent witness.

``explain_analyze`` deliberately sources every *actual* cardinality from
span attributes (the reduce span's per-vertex sizes, the materialise/fold
spans' intermediates, the decode span's output count) rather than copying
``EngineStatistics``.  On any random skewed database — acyclic or cyclic,
adaptive or static — the two accountings must agree byte for byte; the traces
themselves must validate against the checked-in schema.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import EngineSession
from repro.telemetry import Tracer, use_tracer, validate_trace_records

from .strategies import skewed_acyclic_databases, skewed_cyclic_databases

COMMON_SETTINGS = settings(max_examples=20, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


def _actual_sizes(entries):
    """The trace-sourced ``actual`` of each report entry, in report order."""
    return tuple(entry.actual for entry in entries)


def _assert_actuals_match(analysis):
    statistics = analysis.statistics
    assert _actual_sizes(analysis.vertices) == tuple(statistics.reduced_sizes)
    assert _actual_sizes(analysis.steps) == tuple(statistics.intermediate_sizes)
    assert analysis.output.actual == statistics.output_size


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_acyclic_databases(), adaptive=st.booleans())
def test_acyclic_explain_actuals_equal_statistics(database, adaptive):
    session = EngineSession(adaptive=adaptive)
    prepared = session.prepare(database)
    analysis = prepared.explain_analyze(database)
    assert analysis.kind == "acyclic"
    assert analysis.clusters == ()
    _assert_actuals_match(analysis)


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_cyclic_databases())
def test_cyclic_explain_actuals_equal_statistics(database):
    session = EngineSession()
    prepared = session.prepare(database)
    analysis = prepared.explain_analyze(database)
    assert analysis.kind == "cyclic"
    assert _actual_sizes(analysis.clusters) == tuple(
        analysis.statistics.cluster_sizes)
    _assert_actuals_match(analysis)


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_cyclic_databases(), projected=st.booleans())
def test_cyclic_adaptive_runs_estimate_every_join_step(database, projected):
    """One estimate per intra-cluster and per fold step, projected or not."""
    session = EngineSession(adaptive=True)
    outputs = sorted(database.schema.attributes)[:2] if projected else None
    analysis = session.prepare(database, outputs).explain_analyze(database)
    statistics = analysis.statistics
    assert len(statistics.estimated_intermediate_sizes) \
        == len(statistics.intermediate_sizes)
    assert _actual_sizes(analysis.clusters) == tuple(statistics.cluster_sizes)
    _assert_actuals_match(analysis)


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_acyclic_databases())
def test_traced_runs_emit_schema_valid_records(database):
    # Not the cyclic flag: a random acyclic instance may reduce with zero
    # semijoin steps only when it has a single vertex, in which case the
    # schema's required kernel names would be vacuously absent — so assert
    # the structural invariants on the records directly instead.
    session = EngineSession()
    prepared = session.prepare(database)
    tracer = Tracer()
    with use_tracer(tracer):
        prepared.execute(database)
    schema = {"required_fields": ["span_id", "parent_id", "name", "ts",
                                  "start", "end", "duration", "attributes"],
              "numeric_fields": ["ts", "start", "end", "duration"],
              "monotonic_field": "end",
              "required_span_names": ["prepare", "reduce", "fold", "decode"]}
    summary = validate_trace_records(tracer.records, schema)
    assert summary["records"] == len(tracer.records)
