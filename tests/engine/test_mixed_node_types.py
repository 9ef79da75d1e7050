"""Schemas whose attributes mix node types plan and answer like any other.

Every edge ordering in the library goes through
:func:`~repro.core.nodes.edge_sort_key`, which orders by type name, then
value, so an ``int`` attribute is never compared with a ``str`` one.  Each
schema below is prepared and executed by the engine and checked against
:mod:`repro.relational`.
"""

from __future__ import annotations

import pytest

from repro import Hypergraph
from repro.engine import EngineSession, QueryPlanner
from repro.generators import generate_database
from repro.relational import DatabaseSchema, naive_join, yannakakis_join

ACYCLIC = Hypergraph([{1, "b"}, {"b", "c"}, {"c", 2}, {2, 10}, {10, "e", 3}])
CYCLIC = Hypergraph([{1, "b"}, {"b", 3}, {3, 1}, {3, "d"}, {"d", 20}])


def _database(hypergraph: Hypergraph, seed: int):
    return generate_database(DatabaseSchema.from_hypergraph(hypergraph),
                             universe_rows=40, domain_size=5,
                             dangling_fraction=0.3, seed=seed)


def test_a_mixed_schema_builds_a_hypergraph():
    hypergraph = Hypergraph([{1, "b"}, {"b", "c"}])
    assert hypergraph.edges == (frozenset({1, "b"}), frozenset({"b", "c"}))


@pytest.mark.parametrize("adaptive", [True, False])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("outputs", [(1, 3), ("b", 10), None])
def test_an_acyclic_mixed_schema_answers_as_the_reference(adaptive, seed, outputs):
    database = _database(ACYCLIC, seed)
    prepared = EngineSession(QueryPlanner(), adaptive=adaptive).prepare(database, outputs)
    assert prepared.kind == "acyclic"
    expected = yannakakis_join(database, outputs).relation
    assert prepared.execute(database).relation == expected
    assert expected == naive_join(database, outputs)[0]


@pytest.mark.parametrize("adaptive", [True, False])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("outputs", [(1, 20), ("b", "d"), None])
def test_a_cyclic_mixed_schema_answers_as_the_reference(adaptive, seed, outputs):
    database = _database(CYCLIC, seed)
    prepared = EngineSession(QueryPlanner(), adaptive=adaptive).prepare(database, outputs)
    assert prepared.kind == "cyclic"
    assert prepared.execute(database).relation == naive_join(database, outputs)[0]
