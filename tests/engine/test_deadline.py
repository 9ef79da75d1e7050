"""Cooperative execution deadlines: the scope, the checks, the option."""

from __future__ import annotations

import pytest

from repro.engine.columnar import clear_column_caches, column_cache_info, peek_block
from repro.engine.deadline import (
    active_deadline,
    check_deadline,
    deadline_scope,
    remaining_seconds,
)
from repro.engine.session import EngineSession, ExecutionOptions
from repro.exceptions import ExecutionTimeoutError
from repro.generators import (
    generate_consistent_database,
    k_cycle_hypergraph,
    skewed_chain_database,
)
from repro.relational import Database, DatabaseSchema, Relation


@pytest.fixture(scope="module")
def chain_database():
    return skewed_chain_database(3, heads=10, fanout=5, junction_values=3,
                                 seed=3)


@pytest.fixture(scope="module")
def cycle_database():
    schema = DatabaseSchema.from_hypergraph(k_cycle_hypergraph(4))
    return generate_consistent_database(schema, universe_rows=30,
                                        domain_size=6, seed=5)


# --------------------------------------------------------------------------- #
# The scope primitive
# --------------------------------------------------------------------------- #
def test_no_scope_means_no_deadline():
    assert active_deadline() is None
    assert remaining_seconds() is None
    check_deadline("anywhere")  # must be a no-op


def test_scope_exposes_the_budget():
    with deadline_scope(5.0):
        expires_at, budget = active_deadline()
        assert budget == 5.0
        assert 0 < remaining_seconds() <= 5.0
    assert active_deadline() is None


def test_none_scope_is_transparent():
    with deadline_scope(None):
        assert active_deadline() is None


def test_scopes_nest_and_restore():
    with deadline_scope(10.0):
        with deadline_scope(1.0):
            assert active_deadline()[1] == 1.0
        assert active_deadline()[1] == 10.0


def test_a_nested_scope_never_extends_the_ambient_expiry():
    with deadline_scope(0.01):
        ambient = active_deadline()
        with deadline_scope(100.0):
            assert active_deadline() == ambient
            assert remaining_seconds() <= 0.01
        assert active_deadline() == ambient
    assert active_deadline() is None


def test_an_expired_deadline_raises_with_the_phase():
    with deadline_scope(1e-9):
        with pytest.raises(ExecutionTimeoutError) as caught:
            check_deadline("reduce")
    error = caught.value
    assert error.phase == "reduce"
    assert error.deadline_seconds == 1e-9
    assert error.elapsed_seconds >= error.deadline_seconds
    assert "reduce" in str(error)


def test_scope_rejects_nonpositive_budgets():
    with pytest.raises(ValueError):
        with deadline_scope(0.0):
            pass


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), True],
                         ids=["nan", "inf", "bool"])
def test_scope_rejects_budgets_that_could_never_fire(budget):
    with pytest.raises(ValueError, match="finite positive"):
        with deadline_scope(budget):
            pass
    assert active_deadline() is None


# --------------------------------------------------------------------------- #
# The ExecutionOptions field
# --------------------------------------------------------------------------- #
def test_options_validate_the_deadline():
    assert ExecutionOptions().deadline_seconds is None
    assert ExecutionOptions(deadline_seconds=2.5).deadline_seconds == 2.5
    with pytest.raises(ValueError):
        ExecutionOptions(deadline_seconds=0.0)
    with pytest.raises(ValueError):
        ExecutionOptions(deadline_seconds=-1.0)


def test_generous_deadline_does_not_disturb_execution(chain_database):
    session = EngineSession()
    baseline = session.prepare(chain_database).execute(chain_database)
    timed = EngineSession(deadline_seconds=60.0).prepare(chain_database) \
        .execute(chain_database)
    assert frozenset(timed.relation.rows) == frozenset(baseline.relation.rows)


def test_tiny_deadline_times_out_acyclic(chain_database):
    session = EngineSession(deadline_seconds=1e-9)
    with pytest.raises(ExecutionTimeoutError) as caught:
        session.prepare(chain_database).execute(chain_database)
    # The breach is observed at a phase boundary, so the phase is named.
    # The option's budget also covers a never-seen database's ingest.
    assert caught.value.phase in ("ingest", "encode", "reduce", "fold",
                                  "decode")


def test_tiny_deadline_times_out_cyclic(cycle_database):
    session = EngineSession(deadline_seconds=1e-9)
    with pytest.raises(ExecutionTimeoutError) as caught:
        session.prepare(cycle_database).execute(cycle_database)
    assert caught.value.phase in ("ingest", "materialise", "encode",
                                  "reduce", "fold", "decode")


def test_ambient_scope_times_out_an_unoptioned_execution(chain_database):
    prepared = EngineSession().prepare(chain_database)
    prepared.execute(chain_database)  # warm: binding resolved, no deadline
    with deadline_scope(1e-9):
        with pytest.raises(ExecutionTimeoutError):
            prepared.execute(chain_database)
    prepared.execute(chain_database)  # the scope does not stick


def test_spent_budget_stops_ingest_before_any_block_is_cached():
    # Binding resolution is where a never-seen database is measured and
    # encoded; a request whose budget is already spent must not ingest first.
    database = skewed_chain_database(3, heads=10, fanout=5, junction_values=3,
                                     seed=11)
    prepared = EngineSession().prepare(database)
    clear_column_caches()
    misses = column_cache_info()["misses"]
    with deadline_scope(1e-9):
        with pytest.raises(ExecutionTimeoutError) as caught:
            prepared.execute(database)
    assert caught.value.phase == "ingest"
    assert column_cache_info()["misses"] == misses
    assert all(peek_block(relation) is None for relation in database.relations())
    prepared.execute(database)  # nothing half-resolved was memoised


def test_spent_budget_stops_the_service_payload_before_any_row_is_built(
        chain_database, monkeypatch):
    # Under deferred decode the query service builds the answer's rows from
    # the result block; that step sits behind its own check (``payload``).
    from repro.service import server

    result = EngineSession().prepare(chain_database).execute(chain_database)
    built = []
    build = server._relation_payload

    def spy(result):
        built.append(result)
        return build(result)

    monkeypatch.setattr(server, "_relation_payload", spy)
    with deadline_scope(1e-9):
        with pytest.raises(ExecutionTimeoutError) as caught:
            server._relation_payloads((result,), {})
    assert caught.value.phase == "payload"
    assert built == []
    statistics = {}
    with deadline_scope(60.0):
        server._relation_payloads((result,), statistics)
    assert built == [result]
    assert statistics["phase_seconds"]["payload"] > 0


def test_an_option_budget_never_extends_a_smaller_ambient_one(chain_database):
    prepared = EngineSession(deadline_seconds=100.0).prepare(chain_database)
    prepared.execute(chain_database)  # warm: the binding is resolved
    with deadline_scope(1e-9):
        with pytest.raises(ExecutionTimeoutError) as caught:
            prepared.execute(chain_database)
    assert caught.value.deadline_seconds == 1e-9
    assert len(prepared.execute(chain_database).relation) > 0


def test_an_option_budget_covers_ingest_of_a_never_seen_database(
        chain_database):
    prepared = EngineSession(deadline_seconds=1e-9).prepare(chain_database)
    unseen = Database(chain_database.schema, {
        relation.name: Relation.from_valid_rows(relation.schema, relation.rows)
        for relation in chain_database.relations()})
    misses = column_cache_info()["misses"]
    with pytest.raises(ExecutionTimeoutError) as caught:
        prepared.execute(unseen)
    assert caught.value.phase == "ingest"
    assert caught.value.deadline_seconds == 1e-9
    assert column_cache_info()["misses"] == misses
    assert all(peek_block(relation) is None for relation in unseen.relations())


def test_deadline_failures_reach_the_monitor(chain_database):
    session = EngineSession(monitor=True, deadline_seconds=1e-9)
    with pytest.raises(ExecutionTimeoutError):
        session.prepare(chain_database).execute(chain_database)
    entries = session.monitor.log.errors()
    assert entries, "the timeout must land in the query log"
    assert "ExecutionTimeoutError" in (entries[-1].error or "")
