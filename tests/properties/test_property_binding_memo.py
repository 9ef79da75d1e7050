"""Property-based: a warm execute is served from its database binding's memo.

A prepared query's binding fixes the plan, relations, catalog, outputs and
options of a run, so the binding memoises the run's outcome — valid for one
interner generation and one column backend — and a warm execute serves it
without running a kernel.  The claims, on :mod:`strategies`' random skewed
acyclic and cyclic databases, each answer checked against
:mod:`repro.relational`:

* **a hit runs nothing** — it makes no ``membership_step`` / ``join_step``
  call and moves no :func:`column_cache_info` counter but
  ``binding_outcome_hits``; on the benchmark's hot shapes the replay it
  replaces is 14 + 7 (acyclic) and 8 + 4 (cyclic) kernel calls;
* **same answer, same accounting** — under both decode modes, with the
  reduction check on and off, a hit returns the first run's answer and
  accounting with its own phase times;
* **validity** — after :func:`clear_column_caches` the binding misses once
  and then hits, and no memo keeps the retired generation alive; under
  another column backend it misses and reports that backend;
* **still bounded** — an expired deadline raises on a hit, and a cyclic run
  that times out after materialising keeps its clusters, so the retry
  materialises nothing;
* **threads** — eight threads on one binding get the first run's answer;
* **EXPLAIN ANALYZE** — a warm binding renders the cold run's actuals.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from properties.strategies import (
    benchmark_instance,
    deadline_expiring_entering,
    rebound,
    skewed_acyclic_databases,
    skewed_cyclic_databases,
    small_instance,
)

from repro.core.nodes import sorted_nodes
from repro.engine import EngineSession, clear_column_caches, column_cache_info
from repro.engine.columnar import (
    available_column_backends,
    current_interner,
    resolve_column_backend,
    use_column_backend,
)
from repro.engine.columnar import executor as executor_module
from repro.engine.columnar import kernels as kernels_module
from repro.engine.cyclic import executor as cyclic_executor_module
from repro.engine.deadline import deadline_scope
from repro.exceptions import ExecutionTimeoutError
from repro.generators import generate_database, triangle_core_chain
from repro.relational import DatabaseSchema, naive_join, yannakakis_join
from repro.telemetry import Tracer, use_tracer

BACKENDS = available_column_backends()

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def queries(draw):
    """A database plus outputs (``None`` = all, ``()`` = 0-ary)."""
    database = draw(st.one_of(skewed_acyclic_databases(), skewed_cyclic_databases()))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    attributes = sorted_nodes(database.schema.attributes)
    width = rng.choice((None, 0, 1, 2, 3))
    if width is None:
        return database, None
    return database, tuple(rng.sample(attributes, min(width, len(attributes))))


def assert_oracle(relation, database, outputs, name: str) -> None:
    """``relation`` is :mod:`repro.relational`'s answer, byte for byte."""
    if database.schema.is_acyclic():
        expected = yannakakis_join(database, outputs).relation
    else:
        expected = naive_join(database, outputs)[0]
    assert relation.name == name
    assert relation.attributes == tuple(sorted_nodes(expected.schema.attribute_set))
    assert relation.rows == expected.rows
    assert sorted(map(repr, relation.rows)) == sorted(map(repr, expected.rows))


def accounting(result):
    """What a served run reports of its binding's run.

    All but lookups, ``served`` and the phases: a served run times only
    ``prepare`` (:func:`timed_phases`).
    """
    statistics = result.statistics
    return (statistics.plan_name, statistics.input_sizes,
            statistics.intermediate_sizes, statistics.output_size,
            statistics.semijoin_steps, statistics.rows_removed_by_reduction,
            statistics.reduced_sizes, statistics.column_backend,
            statistics.adaptive, statistics.estimated_intermediate_sizes,
            statistics.estimated_output_size,
            getattr(statistics, "cluster_sizes", None),
            getattr(statistics, "estimated_cluster_sizes", None))


def timed_phases(result):
    return tuple(phase for phase, _ in result.statistics.phase_times)


def counter_delta(before, after):
    return {name: after[name] - before[name] for name in after
            if after[name] != before[name]}


@contextmanager
def kernel_calls(*, program_only: bool = False):
    """Count ``membership_step`` / ``join_step`` calls: ``{"semijoin", "join"}``.

    The bound program calls both through :mod:`executor_module`'s names,
    the traced steps and the public kernels (a cyclic run's intra-cluster
    joins among them) through :mod:`kernels_module`'s; ``program_only``
    counts the bound program's untraced replay alone.
    """
    counts = {"semijoin": 0, "join": 0}

    def counting(kind, step):
        def counted(*arguments):
            counts[kind] += 1
            return step(*arguments)
        return counted

    modules = (executor_module,) if program_only else (executor_module, kernels_module)
    with pytest.MonkeyPatch.context() as patch:
        for module in modules:
            patch.setattr(module, "membership_step",
                          counting("semijoin", kernels_module.membership_step))
            patch.setattr(module, "join_step",
                          counting("join", kernels_module.join_step))
        yield counts


# --------------------------------------------------------------------------- #
# A hit runs nothing
# --------------------------------------------------------------------------- #
@SETTINGS
@given(query=queries(), adaptive=st.booleans(), traced=st.booleans())
def test_a_hit_calls_no_kernel_and_moves_only_its_own_count(query, adaptive, traced):
    database, outputs = query
    prepared = EngineSession(adaptive=adaptive).prepare(database, outputs)
    first = prepared.execute(database)
    assert_oracle(first.relation, database, outputs, prepared.name)
    with kernel_calls() as calls, use_tracer(Tracer() if traced else None):
        before = column_cache_info()
        warm = prepared.execute(database)
        delta = counter_delta(before, column_cache_info())
    assert calls == {"semijoin": 0, "join": 0}
    assert delta == {"binding_outcome_hits": 1}
    assert warm.relation is first.relation
    assert (warm.statistics.index_cache_hits, warm.statistics.index_cache_misses) \
        == (0, 0)


@pytest.mark.slow
@pytest.mark.parametrize("kind, semijoins, joins", [("acyclic", 14, 7),
                                                    ("cyclic", 8, 4)])
def test_a_warm_hot_repeat_execute_makes_no_kernel_call(kind, semijoins, joins):
    """The benchmark's hot shapes: the replay a warm execute made, and now 0.

    The cyclic shape is the benchmark's schema and outputs over fewer rows:
    :func:`naive_join` cannot answer the benchmark's instance.
    """
    if kind == "acyclic":
        database, outputs = benchmark_instance(kind)
    else:
        schema = DatabaseSchema.from_hypergraph(triangle_core_chain(4))
        database = generate_database(schema, universe_rows=60, domain_size=8,
                                     dangling_fraction=0.5, seed=4)
        outputs = ("C0", "C5")
    prepared = EngineSession().prepare(database, outputs)
    replay = {"semijoin": semijoins, "join": joins}
    with kernel_calls(program_only=True) as calls:
        prepared.execute(database)
        assert calls == replay
    # A new binding over the same relations replays the whole program...
    with kernel_calls(program_only=True) as calls:
        prepared.execute(rebound(database))
        assert calls == replay
    # ... a warm execute on a binding replays none of it.
    with kernel_calls() as calls:
        for _ in range(3):
            result = prepared.execute(database)
    assert calls == {"semijoin": 0, "join": 0}
    assert_oracle(result.relation, database, outputs, prepared.name)


# --------------------------------------------------------------------------- #
# Same answer, same accounting
# --------------------------------------------------------------------------- #
@SETTINGS
@given(query=queries(), decode=st.sampled_from(["rows", "block"]),
       check=st.booleans(), adaptive=st.booleans())
def test_a_hit_answers_and_accounts_like_the_first_run(query, decode, check, adaptive):
    database, outputs = query
    prepared = EngineSession(decode=decode, check_reduction=check,
                             adaptive=adaptive).prepare(database, outputs)
    first = prepared.execute(database)
    for _ in range(2):
        warm = prepared.execute(database)
        assert warm.relation is first.relation
        assert warm.block is first.block
        assert warm.plan is first.plan and warm.annotated is first.annotated
        assert accounting(warm) == accounting(first)
        assert warm.statistics is not first.statistics  # its own times
        assert warm.statistics.served and not first.statistics.served
        assert timed_phases(warm) == ("prepare",)
        assert_oracle(warm.decoded(), database, outputs, prepared.name)
    # A new binding over the same relations runs and agrees.
    again = prepared.execute(rebound(database))
    assert accounting(again) == accounting(first)
    assert timed_phases(again) == timed_phases(first)
    assert not again.statistics.served
    assert again.decoded() == first.decoded()


# --------------------------------------------------------------------------- #
# Validity: one interner generation, one column backend
# --------------------------------------------------------------------------- #
def outcome_counts():
    info = column_cache_info()
    return info["binding_outcome_hits"], info["binding_outcome_misses"]


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=queries(), adaptive=st.booleans())
def test_a_cache_clear_misses_once_then_hits(query, adaptive):
    database, outputs = query
    prepared = EngineSession(adaptive=adaptive).prepare(database, outputs)
    first = prepared.execute(database)
    try:
        clear_column_caches()
        hits, misses = outcome_counts()
        cleared = prepared.execute(database)
        assert outcome_counts() == (hits, misses + 1)
        assert cleared.relation is not first.relation
        assert accounting(cleared) == accounting(first)
        assert timed_phases(cleared) == timed_phases(first)
        warm = prepared.execute(database)
        assert outcome_counts() == (hits + 1, misses + 1)
        assert warm.relation is cleared.relation
        assert_oracle(warm.relation, database, outputs, prepared.name)
    finally:
        clear_column_caches()


@pytest.mark.parametrize("kind", ["acyclic", "cyclic"])
def test_a_cache_clear_frees_the_generation_a_memo_held(kind):
    database, outputs = small_instance(kind)
    prepared = EngineSession().prepare(database, outputs)
    try:
        # A generation of this test's own, so nothing else holds its blocks.
        clear_column_caches()
        prepared.execute(database)
        prepared.execute(database)
        retired = current_interner()
        clear_column_caches()
        gc.collect()
        # Held by this frame alone (and getrefcount's argument): no memo
        # keeps a block of it.
        assert sys.getrefcount(retired) == 2
        assert_oracle(prepared.execute(database).relation, database, outputs,
                      prepared.name)
    finally:
        clear_column_caches()


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=queries(), first_backend=st.sampled_from(BACKENDS),
       second_backend=st.sampled_from(BACKENDS))
def test_a_backend_switch_misses_and_reports_its_backend(query, first_backend,
                                                         second_backend):
    database, outputs = query
    # No backend option: the prepared query computes on the active backend.
    prepared = EngineSession().prepare(database, outputs)
    with use_column_backend(resolve_column_backend(first_backend)):
        first = prepared.execute(database)
    with use_column_backend(resolve_column_backend(second_backend)):
        hits, misses = outcome_counts()
        second = prepared.execute(database)
        if second_backend == first_backend:
            assert outcome_counts() == (hits + 1, misses)
            assert second.relation is first.relation
        else:
            assert outcome_counts() == (hits, misses + 1)
        warm = prepared.execute(database)
        assert outcome_counts() == (hits + 1 + (second_backend == first_backend),
                                    misses + (second_backend != first_backend))
    for result, backend in ((first, first_backend), (second, second_backend),
                            (warm, second_backend)):
        assert result.statistics.column_backend == backend
        assert_oracle(result.relation, database, outputs, prepared.name)
    assert warm.relation is second.relation


# --------------------------------------------------------------------------- #
# Still bounded, and safe across threads
# --------------------------------------------------------------------------- #
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=queries())
def test_an_expired_deadline_still_raises_on_a_hit(query):
    database, outputs = query
    prepared = EngineSession().prepare(database, outputs)
    first = prepared.execute(database)
    hits, misses = outcome_counts()
    with deadline_scope(1e-9):
        with pytest.raises(ExecutionTimeoutError) as caught:
            prepared.execute(database)
    assert caught.value.phase == ("encode" if prepared.kind == "acyclic"
                                  else "materialise")
    assert outcome_counts() == (hits, misses)
    assert prepared.execute(database).relation is first.relation


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=queries(), adaptive=st.booleans())
def test_a_retry_after_a_timeout_in_reduce_materialises_nothing(query, adaptive):
    database, outputs = query
    prepared = EngineSession(adaptive=adaptive).prepare(database, outputs)
    hits, misses = outcome_counts()
    with deadline_expiring_entering("reduce"):
        with pytest.raises(ExecutionTimeoutError) as caught:
            prepared.execute(database)
    assert caught.value.phase == "reduce"
    materialised = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cyclic_executor_module, "materialise_cluster_blocks",
                      lambda *args, **kwargs: materialised.append(args))
        tracer = Tracer()
        with use_tracer(tracer):
            retry = prepared.execute(database)
    assert materialised == []
    assert outcome_counts() == (hits, misses + 2)
    spans = [record for record in tracer.records if record["name"] == "materialise"]
    assert [span["attributes"]["cached"] for span in spans] == \
        ([True] if prepared.kind == "cyclic" else [])
    # The retry accounts for the run an uninterrupted binding makes.
    uninterrupted = EngineSession(adaptive=adaptive).prepare(database, outputs) \
        .execute(rebound(database))
    assert accounting(retry) == accounting(uninterrupted)
    assert timed_phases(retry) == timed_phases(uninterrupted)
    assert_oracle(retry.relation, database, outputs, prepared.name)
    assert prepared.execute(database).relation is retry.relation


@pytest.mark.parametrize("kind", ["acyclic", "cyclic"])
def test_eight_threads_on_one_binding_agree(kind):
    database, outputs = small_instance(kind)
    prepared = EngineSession().prepare(database, outputs)
    first = prepared.execute(database)
    assert_oracle(first.relation, database, outputs, prepared.name)
    barrier = threading.Barrier(8)
    answers, errors = [[] for _ in range(8)], []

    def run(slot: int) -> None:
        try:
            barrier.wait()
            for _ in range(25):
                result = prepared.execute(database)
                answers[slot].append((result.relation, accounting(result),
                                      result.statistics.served,
                                      timed_phases(result)))
        except BaseException as error:  # surfaced below
            errors.append(error)

    hits, misses = outcome_counts()
    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert not errors
    assert outcome_counts() == (hits + 200, misses)
    for relation, figures, served, phases in (answer for slot in answers
                                              for answer in slot):
        assert relation is first.relation
        assert figures == accounting(first)
        assert served and phases == ("prepare",)


# --------------------------------------------------------------------------- #
# EXPLAIN ANALYZE
# --------------------------------------------------------------------------- #
def _actuals(analysis):
    """The rendered report without its measured phase times."""
    return [line for line in analysis.render().splitlines()
            if not line.lstrip().startswith("phases:")]


def _actual_sizes(entries):
    """The trace-sourced ``actual`` of each report entry, in report order."""
    return tuple(entry.actual for entry in entries)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=queries(), adaptive=st.booleans())
def test_explain_analyze_on_a_warm_binding_renders_the_cold_actuals(query, adaptive):
    database, outputs = query
    prepared = EngineSession(adaptive=adaptive).prepare(database, outputs)
    cold = prepared.explain_analyze(database)
    warm = prepared.explain_analyze(database)
    assert _actuals(warm) == _actuals(cold)
    assert _actual_sizes(warm.vertices) == _actual_sizes(cold.vertices)
    assert _actual_sizes(warm.steps) == _actual_sizes(cold.steps)
    assert _actual_sizes(warm.clusters) == _actual_sizes(cold.clusters)
    assert warm.output == cold.output
    # The warm execute was served: it opened no phase span, and its actuals
    # are the stored run's, read from the binding's outcome.
    assert warm.statistics.served and not cold.statistics.served
    assert [record["name"] for record in warm.records] == ["prepare", "execute"]
    assert warm.records[0]["attributes"]["cached"] is True
    assert [phase for phase, _ in warm.phase_seconds] == ["prepare"]
    assert_oracle(prepared.execute(database).decoded(), database, outputs,
                  prepared.name)
