"""A served execute: the result it builds and the fixed work it does.

A warm execute is served from its database binding's memoised outcome
(:func:`repro.engine.yannakakis._served_run`).  It builds its statistics and
its result with one constructor call each, from arguments resolved when the
outcome was stored, and the session records its metrics with one
:meth:`~repro.telemetry.metrics.MetricsRegistry.record` call.  The claims:

* **the served result is the copy it replaces** — on acyclic and cyclic
  schemas, adaptive and static, under both decode modes, every dataclass
  field of a served ``EngineResult`` and of its statistics equals
  ``dataclasses.replace(stored, index_cache_hits=0, index_cache_misses=0,
  served=True, phase_times=served.phase_times)``, and those phase times
  are the one ``prepare`` the served call timed;
* **isolation** — a caller that mutates its served statistics changes
  neither the next served result nor the stored outcome;
* **exact work** — per warm execute on the benchmark's hot shapes: no
  ``Counter.inc`` / ``Histogram.observe`` call (10 acyclic / 11 cyclic
  before), one ``record`` call taking the series lock once, and no
  ``dataclasses.replace`` / ``fields`` call (2 before).
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from properties.strategies import benchmark_instance, small_instance

from repro.engine import EngineSession
from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import Counter, Histogram


def stored_outcome(prepared, database):
    return prepared._binding_for(database).warm.outcome


def field_values(instance):
    return {field.name: getattr(instance, field.name)
            for field in dataclasses.fields(instance)}


def assert_same_fields(actual, expected):
    """``actual`` is ``expected``'s type, equal on every dataclass field."""
    assert type(actual) is type(expected)
    for field in dataclasses.fields(expected):
        value, wanted = getattr(actual, field.name), getattr(expected, field.name)
        if dataclasses.is_dataclass(wanted):
            assert_same_fields(value, wanted)
        else:
            assert value == wanted, field.name


def replaced_copy(stored, served):
    """What a served execute returned before: the stored result, copied."""
    return dataclasses.replace(stored, statistics=dataclasses.replace(
        stored.statistics, index_cache_hits=0, index_cache_misses=0,
        served=True, phase_times=served.statistics.phase_times))


# --------------------------------------------------------------------------- #
# The served result is the copy it replaces
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("decode", ["rows", "block"])
@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("kind", ["acyclic", "cyclic"])
def test_a_served_result_equals_the_replaced_copy(kind, adaptive, decode):
    database, outputs = small_instance(kind)
    prepared = EngineSession(adaptive=adaptive, decode=decode) \
        .prepare(database, outputs)
    assert prepared.kind == kind
    first = prepared.execute(database)
    stored = stored_outcome(prepared, database).result
    assert stored is first
    for _ in range(2):
        served = prepared.execute(database)
        assert served is not stored and served.statistics is not stored.statistics
        assert_same_fields(served, replaced_copy(stored, served))
        assert (served.relation is None) == (decode == "block")
        assert served.statistics.served and not stored.statistics.served
        assert [phase for phase, _ in served.statistics.phase_times] == \
            ["prepare"]


@pytest.mark.parametrize("kind", ["acyclic", "cyclic"])
def test_mutating_served_statistics_reaches_nothing_else(kind):
    database, outputs = small_instance(kind)
    prepared = EngineSession().prepare(database, outputs)
    prepared.execute(database)
    outcome = stored_outcome(prepared, database)
    stored_fields = field_values(outcome.result.statistics)
    arguments = dict(outcome.statistics_arguments)
    served = prepared.execute(database)
    # Every value a served object shares with the stored one is immutable,
    # so no caller can edit it in place ...
    for value in field_values(served.statistics).values():
        hash(value)
    # ... and rebinding every field of it touches only that object.
    for name in field_values(served.statistics):
        setattr(served.statistics, name, "mutated")
    following = prepared.execute(database)
    assert_same_fields(following, replaced_copy(outcome.result, following))
    assert stored_outcome(prepared, database) is outcome
    assert field_values(outcome.result.statistics) == stored_fields
    assert outcome.statistics_arguments == arguments


# --------------------------------------------------------------------------- #
# Exact work per warm execute
# --------------------------------------------------------------------------- #
class CountingLock:
    """A lock that counts how often it is entered."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.entries = 0

    def __enter__(self) -> "CountingLock":
        self._lock.acquire()
        self.entries += 1
        return self

    def __exit__(self, *exc_info) -> bool:
        self._lock.release()
        return False


def counting(counts, key, function):
    def counted(*args, **kwargs):
        counts[key] += 1
        return function(*args, **kwargs)
    return counted


@pytest.mark.parametrize("kind", ["acyclic", "cyclic"])
def test_a_warm_hot_execute_takes_one_lock_and_copies_no_dataclass(kind,
                                                                   monkeypatch):
    database, outputs = benchmark_instance(kind)
    registry = MetricsRegistry()
    lock = registry._series_lock = CountingLock()
    prepared = EngineSession(metrics=registry).prepare(database, outputs)
    prepared.execute(database)
    prepared.execute(database)
    counts = dict.fromkeys(("inc", "observe", "record", "replace", "fields"), 0)
    monkeypatch.setattr(Counter, "inc", counting(counts, "inc", Counter.inc))
    monkeypatch.setattr(Histogram, "observe",
                        counting(counts, "observe", Histogram.observe))
    monkeypatch.setattr(MetricsRegistry, "record",
                        counting(counts, "record", MetricsRegistry.record))
    # dataclasses' own functions, and every alias a repro module imported.
    for name in ("replace", "fields"):
        original = getattr(dataclasses, name)
        counted = counting(counts, name, original)
        monkeypatch.setattr(dataclasses, name, counted)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") \
                    and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    entries = lock.entries
    for _ in range(5):
        result = prepared.execute(database)
    assert counts == {"inc": 0, "observe": 0, "record": 5, "replace": 0,
                      "fields": 0}
    assert lock.entries - entries == 5
    assert registry.counter("engine_queries_total",
                            labels={"kind": kind}).value == 7
    assert result.statistics.index_cache_hits == 0
