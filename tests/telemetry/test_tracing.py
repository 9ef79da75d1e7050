"""Span tracing: nesting, the null-tracer hot path, sinks, and phase merging."""

from __future__ import annotations

import io
import json

import pytest

from repro.engine import EngineSession
from repro.generators import (
    generate_database,
    skewed_chain_database,
    skewed_chain_endpoints,
    triangle_core_chain,
)
from repro.relational import DatabaseSchema
from repro.telemetry import (
    NULL_TRACER,
    JsonlTraceSink,
    Tracer,
    current_tracer,
    merge_phase_times,
    span_totals,
    use_tracer,
    validate_trace_records,
)


@pytest.fixture
def acyclic_database():
    return skewed_chain_database(3, heads=6, fanout=3, junction_values=2,
                                 seed=1)


@pytest.fixture
def cyclic_database():
    # A triangle core *with chain ears*: a pure triangle collapses to a
    # single-cluster quotient whose reducer runs zero semijoins.
    schema = DatabaseSchema.from_hypergraph(triangle_core_chain(3))
    return generate_database(schema, universe_rows=40, seed=3)


def _traced_execution(database, outputs=None):
    session = EngineSession()
    prepared = session.prepare(database, outputs)
    tracer = Tracer()
    with use_tracer(tracer):
        result = prepared.execute(database)
    return prepared, result, tracer


def _children_of(records, name):
    parents = {r["span_id"]: r for r in records}
    root = next(r for r in records if r["name"] == name)
    return [r["name"] for r in records if r.get("parent_id") == root["span_id"]], root, parents


class TestSpanNesting:
    def test_acyclic_execution_emits_a_well_formed_span_tree(
            self, acyclic_database):
        prepared, result, tracer = _traced_execution(
            acyclic_database, skewed_chain_endpoints(3))
        summary = validate_trace_records(tracer.records)
        assert summary["records"] == len(tracer.records)
        child_names, root, _ = _children_of(tracer.records, "execute")
        assert root["parent_id"] is None
        assert root["attributes"]["kind"] == "acyclic"
        assert root["attributes"]["output_rows"] == result.statistics.output_size
        for phase in ("prepare", "encode", "reduce", "fold", "decode"):
            assert phase in child_names

    def test_kernel_spans_nest_under_reduce_and_fold(
            self, acyclic_database):
        _, _, tracer = _traced_execution(acyclic_database,
                                         skewed_chain_endpoints(3))
        by_id = {r["span_id"]: r for r in tracer.records}
        kernels = [r for r in tracer.records
                   if str(r["name"]).startswith("kernel:")]
        assert kernels, "the physical layer emitted no kernel spans"
        for kernel in kernels:
            parent = by_id[kernel["parent_id"]]
            assert parent["name"] in ("reduce", "fold")
            assert kernel["attributes"]["backend"] in ("array", "numpy")
            assert kernel["attributes"]["output_rows"] >= 0

    def test_cyclic_execution_emits_the_cyclic_only_spans(
            self, cyclic_database):
        # The cover search runs at prepare time, so trace the prepare too.
        session = EngineSession()
        tracer = Tracer()
        with use_tracer(tracer):
            prepared = session.prepare(cyclic_database)
            prepared.execute(cyclic_database)
        assert prepared.kind == "cyclic"
        summary = validate_trace_records(tracer.records, cyclic=True)
        assert "cover_search" in summary["span_names"]
        assert "materialise" in summary["span_names"]

    def test_exception_is_noted_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (record,) = tracer.records
        assert record["attributes"]["error"] == "RuntimeError"
        assert record["end"] >= record["start"]


class TestNullTracer:
    def test_the_default_ambient_tracer_is_the_null_singleton(self):
        assert current_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.records == ()

    def test_null_spans_are_one_shared_object(self):
        # The disabled hot path allocates nothing: every span() call hands
        # out the same no-op object, and set() is a chainable no-op on it.
        span = NULL_TRACER.span("reduce")
        assert NULL_TRACER.span("fold") is span
        assert span.set("rows", 10) is span
        assert not span.is_recording
        with span as entered:
            assert entered is span

    def test_untraced_execution_records_nothing(self, acyclic_database):
        prepared = EngineSession().prepare(acyclic_database)
        tracer = Tracer()
        with use_tracer(tracer):
            prepared.execute(acyclic_database)
        assert any(r["name"] == "execute" for r in tracer.records)
        tracer.clear()
        prepared.execute(acyclic_database)
        assert current_tracer() is NULL_TRACER
        assert tracer.records == []


class TestUseTracer:
    def test_activations_nest_and_restore(self):
        outer, inner = Tracer(), Tracer()
        with use_tracer(outer):
            assert current_tracer() is outer
            with use_tracer(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is NULL_TRACER

    def test_none_means_trace_nothing_here(self):
        with use_tracer(Tracer()):
            with use_tracer(None):
                assert current_tracer() is NULL_TRACER

    def test_none_silences_an_execute_inside_an_installed_tracer(
            self, acyclic_database):
        prepared = EngineSession().prepare(acyclic_database)
        outer = Tracer()
        with use_tracer(outer):
            with use_tracer(None):
                prepared.execute(acyclic_database)
            assert outer.records == []
            prepared.execute(acyclic_database)
        assert any(r["name"] == "execute" for r in outer.records)


class TestSinks:
    def test_records_arrive_in_completion_order(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [r["name"] for r in tracer.records] == ["inner", "outer"]

    def test_jsonl_sink_round_trips_through_a_stream(self, acyclic_database):
        buffer = io.StringIO()
        tracer = Tracer(sinks=(JsonlTraceSink(buffer),))
        session = EngineSession()
        prepared = session.prepare(acyclic_database)
        with use_tracer(tracer):
            prepared.execute(acyclic_database)
        read_back = [json.loads(line) for line
                     in buffer.getvalue().splitlines() if line]
        assert read_back == tracer.records
        validate_trace_records(read_back)

    def test_jsonl_sink_owns_and_closes_a_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(str(path)) as sink:
            sink.emit({"span_id": 1, "name": "x"})
        lines = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0])["name"] == "x"


class TestRollups:
    def test_span_totals_sum_durations_per_name(self):
        records = [{"name": "reduce", "duration": 0.25},
                   {"name": "fold", "duration": 0.5},
                   {"name": "reduce", "duration": 0.25}]
        assert span_totals(records) == {"reduce": 0.5, "fold": 0.5}

    def test_merge_phase_times_sums_by_name_in_first_seen_order(self):
        merged = merge_phase_times(
            (("prepare", 1.0), ("materialise", 2.0)),
            (("prepare", 0.5), ("reduce", 3.0)),
            (("reduce", 1.0),))
        assert merged == (("prepare", 1.5), ("materialise", 2.0),
                          ("reduce", 4.0))

    def test_statistics_carry_phase_times_and_elapsed(self,
                                                      acyclic_database):
        _, result, _ = _traced_execution(acyclic_database)
        phases = dict(result.statistics.phase_times)
        for phase in ("prepare", "encode", "reduce", "fold", "decode"):
            assert phases[phase] >= 0.0
        assert result.statistics.elapsed_seconds == pytest.approx(
            sum(phases.values()))
        assert "wall=" in result.statistics.describe()
