"""The registry's batch write: one lock per execution, the per-series values.

Every series of one :class:`MetricsRegistry` shares one series lock, and
:meth:`MetricsRegistry.record` applies a list of counter increments and
histogram observations under one acquisition of it — the session's only
per-execution write.  The claims:

* **same exposition** — an execution recorded through the batch renders,
  in ``render_prometheus()`` and ``snapshot()``, byte for byte what the
  per-series ``Counter.inc`` / ``Histogram.observe`` calls render;
* **all or nothing** — a batch holding a NaN or infinite amount, a negative
  increment or another registry's series raises ``ValueError`` and applies
  nothing;
* **exact under threads** — 8 threads × 250 warm executes on one prepared
  query, while another thread increments an unrelated counter of the same
  registry and a third renders it, leave every total exact, and every
  concurrent render reads whole executions (one count in the query counter
  and the latency histogram).  The executes are served, so the phase
  histograms keep the one count of the run that stored the outcome.
"""

from __future__ import annotations

import sys
import threading

import pytest

from properties.strategies import small_instance

from repro.engine import EngineSession
from repro.engine.cyclic.plans import CyclicEngineStatistics
from repro.engine.planner import EngineStatistics
from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import Counter

NAN, INF = float("nan"), float("inf")


def record_per_series(registry, kind, statistics, elapsed_seconds):
    """One execution's writes, series by series, as the session made them."""
    registry.counter("engine_queries_total",
                     "Queries executed through the session.",
                     labels={"kind": kind}).inc()
    registry.counter("engine_semijoin_steps_total",
                     "Semijoin steps run by the full reducer.") \
        .inc(statistics.semijoin_steps)
    registry.counter("engine_rows_removed_total",
                     "Dangling rows removed by reduction.") \
        .inc(statistics.rows_removed_by_reduction)
    registry.counter("engine_rows_output_total",
                     "Answer rows returned to callers.").inc(statistics.output_size)
    registry.histogram("engine_query_seconds",
                       "End-to-end query latency.").observe(elapsed_seconds)
    for phase, seconds in statistics.phase_times:
        registry.histogram("engine_phase_seconds", "Per-phase latency.",
                           labels={"phase": phase}).observe(seconds)


#: Fixed executions: bucket bounds hit exactly, values past the last
#: bucket, a large count and a zero one.
EXECUTIONS = (
    ("acyclic", EngineStatistics(
        plan_name="engine-yannakakis", output_size=1_234_567, semijoin_steps=14,
        rows_removed_by_reduction=37,
        phase_times=(("prepare", 0.0001), ("encode", 0.00025), ("reduce", 0.0031),
                     ("fold", 7.5), ("decode", 1e-06))), 0.0001),
    ("cyclic", CyclicEngineStatistics(
        plan_name="engine-cyclic-adaptive", output_size=0, semijoin_steps=8,
        rows_removed_by_reduction=0,
        phase_times=(("prepare", 0.002), ("materialise", 0.25), ("encode", 5.0),
                     ("reduce", 0.0), ("fold", 1234.5678), ("decode", 0.1))), 12.0),
    ("acyclic", EngineStatistics(
        plan_name="engine-yannakakis", output_size=3, semijoin_steps=2,
        rows_removed_by_reduction=5,
        phase_times=(("prepare", 0.5), ("encode", 0.1), ("reduce", 0.2),
                     ("fold", 0.3), ("decode", 0.0005))), 2.5),
)


def test_the_batch_renders_what_the_per_series_calls_render():
    per_series, batched = MetricsRegistry(), MetricsRegistry()
    session = EngineSession(metrics=batched)
    for kind, statistics, elapsed in EXECUTIONS:
        record_per_series(per_series, kind, statistics, elapsed)
        session._record_execution(kind, statistics, elapsed)
        assert batched.render_prometheus() == per_series.render_prometheus()
        assert repr(batched.snapshot()) == repr(per_series.snapshot())


def test_record_applies_the_values_inc_and_observe_apply():
    one, other = MetricsRegistry(), MetricsRegistry()
    for registry in (one, other):
        registry.counter("hits_total", labels={"cache": "planner"})
        registry.histogram("latency", buckets=(0.1, 1.0))
    one.counter("hits_total", labels={"cache": "planner"}).inc(2.5)
    one.counter("hits_total", labels={"cache": "planner"}).inc(1)
    for value in (0.1, 0.7, 3.0):
        one.histogram("latency").observe(value)
    counter = other.counter("hits_total", labels={"cache": "planner"})
    histogram = other.histogram("latency")
    other.record([(counter, 2.5), (counter, 1)],
                 [(histogram, 0.1), (histogram, 0.7), (histogram, 3.0)])
    assert other.render_prometheus() == one.render_prometheus()
    assert repr(other.snapshot()) == repr(one.snapshot())


# --------------------------------------------------------------------------- #
# All or nothing
# --------------------------------------------------------------------------- #
def _registry():
    registry = MetricsRegistry()
    counter = registry.counter("queries_total")
    histogram = registry.histogram("latency", buckets=(0.1, 1.0))
    registry.record([(counter, 3)], [(histogram, 0.5)])
    return registry, counter, histogram


@pytest.mark.parametrize("increments, observations", [
    pytest.param([("counter", 1), ("counter", NAN)], [("histogram", 0.2)],
                 id="nan-increment"),
    pytest.param([("counter", 1), ("counter", -1)], [("histogram", 0.2)],
                 id="negative-increment"),
    pytest.param([("counter", 1)], [("histogram", 0.2), ("histogram", NAN)],
                 id="nan-observation"),
    pytest.param([("counter", 1), ("counter", INF)], [("histogram", 0.2)],
                 id="infinite-increment"),
    pytest.param([("counter", 1)], [("histogram", 0.2), ("histogram", INF)],
                 id="infinite-observation"),
    pytest.param([("counter", 1)], [("histogram", 0.2), ("histogram", -INF)],
                 id="negative-infinite-observation"),
    pytest.param([("counter", 1), ("foreign", 1)], [("histogram", 0.2)],
                 id="foreign-counter"),
    pytest.param([("counter", 1)], [("histogram", 0.2), ("foreign-histogram", 0.2)],
                 id="foreign-histogram"),
    pytest.param([("counter", 1), ("standalone", 1)], [], id="standalone-counter"),
])
def test_a_failing_batch_applies_nothing(increments, observations):
    registry, counter, histogram = _registry()
    stranger = MetricsRegistry()
    series = {"counter": counter, "histogram": histogram,
              "foreign": stranger.counter("queries_total"),
              "foreign-histogram": stranger.histogram("latency"),
              "standalone": Counter()}
    before = (registry.render_prometheus(), repr(registry.snapshot()))
    with pytest.raises(ValueError):
        registry.record([(series[name], amount) for name, amount in increments],
                        [(series[name], value) for name, value in observations])
    assert (registry.render_prometheus(), repr(registry.snapshot())) == before
    assert counter.value == 3 and histogram.count == 1 and histogram.sum == 0.5
    registry.record([(counter, 1)], [(histogram, 0.2)])
    assert counter.value == 4 and histogram.count == 2


# --------------------------------------------------------------------------- #
# Exact under threads
# --------------------------------------------------------------------------- #
THREADS, EXECUTES = 8, 250


def _counts(snapshot, kind, phases):
    return {
        "queries": snapshot[f"engine_queries_total{{kind={kind}}}"],
        "latency": snapshot["engine_query_seconds"]["count"],
        "output": snapshot["engine_rows_output_total"],
        **{phase: snapshot[f"engine_phase_seconds{{phase={phase}}}"]["count"]
           for phase in phases},
    }


def counted_executions(text, kind):
    """The distinct execution counts one exposition reports.

    Each execution adds one to its kind's query counter and one to the
    count and the ``+Inf`` bucket of the query latency histogram, so a
    scrape that reads whole executions reports a single number.
    """
    values = dict(line.rsplit(" ", 1) for line in text.splitlines()
                  if not line.startswith("#"))
    return {int(float(value)) for sample, value in values.items()
            if sample == f'engine_queries_total{{kind="{kind}"}}'
            or sample.startswith("engine_query_seconds_count")
            or (sample.startswith("engine_query_seconds_bucket")
                and 'le="+Inf"' in sample)}


@pytest.mark.parametrize("kind", ["acyclic", "cyclic"])
def test_threaded_executes_and_an_unrelated_counter_stay_exact(kind):
    database, outputs = small_instance(kind)
    registry = MetricsRegistry()
    prepared = EngineSession(metrics=registry).prepare(database, outputs)
    first = prepared.execute(database)
    assert prepared.kind == kind
    phases = [phase for phase, _ in first.statistics.phase_times]
    unrelated = registry.counter("unrelated_total", "Bumped beside the executes.")
    before = _counts(registry.snapshot(), kind, phases)
    start = threading.Barrier(THREADS + 2)
    executed = threading.Event()
    bumps, renders, errors, cut = [0], [0], [], []

    def guarded(body):
        def run():
            try:
                start.wait()
                body()
            except BaseException as error:  # surfaced below
                errors.append(error)
                executed.set()
        return run

    def execute():
        for _ in range(EXECUTES):
            prepared.execute(database)

    def bump():
        while not executed.is_set():
            unrelated.inc()
            bumps[0] += 1

    def render():
        while not executed.is_set():
            cut.append(counted_executions(registry.render_prometheus(), kind))
            renders[0] += 1

    workers = [threading.Thread(target=guarded(execute)) for _ in range(THREADS)]
    others = [threading.Thread(target=guarded(body)) for body in (bump, render)]
    # Switch threads often, so that a lost update would show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in workers + others:
            thread.start()
        for thread in workers:
            thread.join(timeout=120)
        executed.set()
        for thread in workers + others:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        executed.set()
        sys.setswitchinterval(interval)
    assert not errors
    assert bumps[0] > 0 and renders[0] > 0
    # Every scrape saw whole executions: each counted once in every series.
    assert all(len(counted) == 1 for counted in cut), \
        [counted for counted in cut if len(counted) != 1][:3]
    after = _counts(registry.snapshot(), kind, phases)
    total = THREADS * EXECUTES
    assert {key: after[key] - before[key] for key in after} == {
        "queries": total, "latency": total,
        "output": total * first.statistics.output_size,
        **dict.fromkeys(phases, 0)}
    assert all(after[phase] == 1 for phase in phases)
    assert unrelated.value == bumps[0]
