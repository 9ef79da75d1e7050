"""A served execute does only served work.

A warm execute on a bound database is served from its binding's memoised
outcome (:func:`repro.engine.yannakakis._served_run`): no kernel runs, so
nothing is timed or counted as if one had.  Per served execute on the
benchmark's two hot shapes (:func:`properties.strategies.benchmark_instance`,
acyclic and cyclic), the claims, with the figures a served execute had when
it still replayed a run's phases:

* **spans** — it opens ``prepare`` and ``execute`` and nothing else, under a
  recording tracer and under the null tracer alike (6 acyclic / 7 cyclic
  before);
* **metrics** — its one :meth:`~repro.telemetry.metrics.MetricsRegistry.record`
  call adds ``engine_queries_total`` +1 and ``engine_rows_output_total`` +n
  and observes ``engine_query_seconds`` once; ``engine_semijoin_steps_total``
  (+14 / +8 before) and ``engine_rows_removed_total`` stay put, and no
  ``engine_phase_seconds`` histogram is observed (5 / 6 before), so after
  one run and 100 served executes each phase histogram's count reads 1;
* **plan quality** — under a monitor, one run and 50 served executes leave
  the tracker's record at the run's own ``runs`` 1 and ``observations``
  8 / 7 (51 and 408 / 357 before), while the query log holds all 51.
"""

from __future__ import annotations

import pytest

from properties.strategies import benchmark_instance

from repro.engine import EngineSession
from repro.telemetry import MetricsRegistry
from repro.telemetry.tracing import NullTracer, Tracer, use_tracer

#: The quality observations one adaptive run of each hot shape makes: one
#: q-error per join step plus the output's.
OBSERVATIONS = {"acyclic": 8, "cyclic": 7}


@pytest.fixture(scope="module", params=["acyclic", "cyclic"])
def hot(request):
    """``(kind, database, outputs)`` of one of the benchmark's hot shapes."""
    database, outputs = benchmark_instance(request.param)
    return request.param, database, outputs


def warm_query(database, outputs, **session_options):
    """A prepared query whose binding has run once and stored its outcome."""
    prepared = EngineSession(**session_options).prepare(database, outputs)
    first = prepared.execute(database)
    assert not first.statistics.served
    return prepared, first


def execution_counts(snapshot, kind):
    return {
        "queries": snapshot[f"engine_queries_total{{kind={kind}}}"],
        "output": snapshot["engine_rows_output_total"],
        "semijoins": snapshot["engine_semijoin_steps_total"],
        "removed": snapshot["engine_rows_removed_total"],
        "latency": snapshot["engine_query_seconds"]["count"],
        **{key: value["count"] for key, value in snapshot.items()
           if key.startswith("engine_phase_seconds")},
    }


def test_a_served_execute_opens_prepare_and_execute_only(hot, monkeypatch):
    kind, database, outputs = hot
    prepared, first = warm_query(database, outputs)
    tracer = Tracer()
    with use_tracer(tracer):
        served = prepared.execute(database)
    assert served.statistics.served
    assert [record["name"] for record in tracer.records] == ["prepare", "execute"]
    assert [phase for phase, _ in served.statistics.phase_times] == ["prepare"]
    opened = []
    real_span = NullTracer.span

    def counting_span(self, name):
        opened.append(name)
        return real_span(self, name)

    monkeypatch.setattr(NullTracer, "span", counting_span)
    with use_tracer(None):
        for _ in range(5):
            assert prepared.execute(database).relation is first.relation
    assert opened == ["execute", "prepare"] * 5


def test_a_served_execute_records_one_query_and_no_phase(hot, monkeypatch):
    kind, database, outputs = hot
    registry = MetricsRegistry()
    prepared, first = warm_query(database, outputs, metrics=registry)
    output_rows = first.statistics.output_size
    assert first.statistics.semijoin_steps > 0
    batches = []
    real_record = MetricsRegistry.record

    def capturing_record(self, increments=(), observations=()):
        batches.append((tuple(increments), tuple(observations)))
        return real_record(self, increments, observations)

    monkeypatch.setattr(MetricsRegistry, "record", capturing_record)
    before = execution_counts(registry.snapshot(), kind)
    prepared.execute(database)
    after = execution_counts(registry.snapshot(), kind)
    (increments, observations), = batches
    series = prepared._session._execution_series(kind)
    assert increments == ((series["queries"], 1), (series["output"], output_rows))
    assert [histogram for histogram, _ in observations] == [series["latency"]]
    assert {key: after[key] - before[key] for key in after} == {
        **dict.fromkeys(after, 0),
        "queries": 1, "output": output_rows, "latency": 1}


def test_phase_histograms_count_the_run_not_the_served_executes(hot):
    kind, database, outputs = hot
    registry = MetricsRegistry()
    prepared, first = warm_query(database, outputs, metrics=registry)
    for _ in range(100):
        prepared.execute(database)
    counts = execution_counts(registry.snapshot(), kind)
    phases = [phase for phase, _ in first.statistics.phase_times]
    assert {key: counts[key] for key in counts
            if key.startswith("engine_phase_seconds")} == \
        {f"engine_phase_seconds{{phase={phase}}}": 1 for phase in phases}
    assert (counts["queries"], counts["latency"]) == (101, 101)
    assert counts["output"] == 101 * first.statistics.output_size
    assert counts["semijoins"] == first.statistics.semijoin_steps
    assert counts["removed"] == first.statistics.rows_removed_by_reduction


def test_the_monitor_logs_served_executes_but_folds_only_the_run(hot):
    kind, database, outputs = hot
    prepared, first = warm_query(database, outputs, monitor=True, adaptive=True)
    for _ in range(50):
        assert prepared.execute(database).statistics.served
    monitor = prepared._session.monitor
    record = monitor.quality.record(prepared._digest)
    assert (record.runs, record.observations) == (1, OBSERVATIONS[kind])
    entries = [entry for entry in monitor.log.entries()
               if entry.query == prepared.name]
    assert len(entries) == 51


#: The semijoin steps one run of each hot shape makes.
SEMIJOIN_STEPS = {"acyclic": 14, "cyclic": 8}


def test_the_query_log_counts_no_semijoin_for_a_served_execute(hot):
    kind, database, outputs = hot
    prepared, first = warm_query(database, outputs, monitor=True)
    for _ in range(2):
        prepared.execute(database)
    monitor = prepared._session.monitor
    logged = [entry.to_dict() for entry in monitor.log.entries()]
    assert [entry["semijoin_steps"] for entry in logged] == \
        [SEMIJOIN_STEPS[kind], 0, 0]
    assert [entry["rows_removed"] for entry in logged] == \
        [first.statistics.rows_removed_by_reduction, 0, 0]
    snapshot = prepared._session.metrics.snapshot()
    assert snapshot["engine_semijoin_steps_total"] == SEMIJOIN_STEPS[kind]
    assert snapshot["engine_rows_removed_total"] == \
        first.statistics.rows_removed_by_reduction


def test_a_batch_counts_the_work_its_runs_did(hot):
    """A batch's totals move with the session's counters, not with the stored runs."""
    kind, database, outputs = hot
    prepared = EngineSession().prepare(database, outputs)
    metrics = prepared._session.metrics
    for expected_steps in (SEMIJOIN_STEPS[kind], 0):
        before = metrics.snapshot()
        batch = prepared.execute_many([database, database])
        after = metrics.snapshot()

        def moved(series):
            return after.get(series, 0) - before.get(series, 0)

        assert [result.statistics.served for result in batch] \
            == [expected_steps == 0, True]
        assert batch.statistics.semijoin_steps == expected_steps \
            == moved("engine_semijoin_steps_total")
        assert batch.statistics.rows_removed_by_reduction \
            == moved("engine_rows_removed_total")


def test_a_wire_batch_counts_the_work_its_runs_did(hot):
    from repro.service import PROTOCOL_VERSION, QueryService

    kind, database, outputs = hot
    service = QueryService(EngineSession())
    service.add_database("db", database)

    def call(method, **params):
        status, envelope = service.handle({"version": PROTOCOL_VERSION,
                                           "method": method, "client": "batch",
                                           "id": method, "params": params})
        assert status == 200, envelope
        return envelope["result"]

    try:
        handle = call("prepare", database="db",
                      outputs=[str(attribute) for attribute in outputs])["query"]
        cold, warm = (call("execute_many", query=handle, databases=["db", "db"],
                           max_workers=1)["statistics"] for _ in range(2))
    finally:
        service.pool.shutdown(wait=True)
    assert cold["semijoin_steps"] == SEMIJOIN_STEPS[kind]
    assert (warm["semijoin_steps"], warm["rows_removed_by_reduction"]) == (0, 0)
