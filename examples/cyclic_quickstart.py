"""Quickstart for the cyclic execution subsystem (``repro.engine.cyclic``).

Builds the chain-with-a-triangle-core database — the cyclic instance the
paper's conclusion warns about — answers an endpoint query with the naive
plan and with the cyclic engine, and prints the shared statistics table
that makes the gap concrete: the cyclic core is confined to small cluster
joins, the acyclic quotient goes through the full reducer, and the largest
intermediate collapses.

Run with::

    PYTHONPATH=src python examples/cyclic_quickstart.py
"""

from __future__ import annotations

from repro.analysis import statistics_table
from repro.engine import EngineSession
from repro.generators import generate_database, triangle_core_chain
from repro.queries import ConjunctiveQuery
from repro.relational import DatabaseSchema, execute_plan, naive_join_plan, project


def main() -> None:
    # A Fig.-5-style chain whose head attribute C0 closes into a triangle
    # with two fresh attributes T1, T2: the chain is acyclic, the triangle
    # has no covering edge — a cyclic core the acyclic engine must refuse.
    hypergraph = triangle_core_chain(4)
    schema = DatabaseSchema.from_hypergraph(hypergraph)
    database = generate_database(schema, universe_rows=80, domain_size=4,
                                 dangling_fraction=0.6, seed=42)
    endpoints = ("C0", "C5")
    print(database.describe())
    print()

    naive_result, naive_stats = execute_plan(naive_join_plan(database),
                                             plan_name="naive")
    # The session resolves the dispatch itself: this schema is cyclic, so
    # prepare compiles a cluster cover + acyclic quotient plan.
    session = EngineSession(adaptive=False)
    prepared = session.prepare(database, endpoints)
    print(f"dispatch resolved at prepare time: {prepared.kind}")
    fast = prepared.execute(database)
    assert frozenset(fast.relation.rows) == frozenset(project(naive_result,
                                                              endpoints).rows)

    print(statistics_table([naive_stats, fast.statistics],
                           title="naive vs cyclic engine (endpoints query)"))
    print(f"largest-intermediate savings: "
          f"{fast.statistics.savings_versus(naive_stats):.1f}x")
    print()

    # The compiled plan: cover (clusters), acyclic quotient, inner plan.
    print(fast.plan.describe())
    print()

    # Cover search runs once per schema: warm executions of the prepared
    # query never touch the planner again.
    before = session.cache_info()
    again = prepared.execute(database)
    print(f"second run plan cache hit: {again.statistics.plan_cache_hit}")
    print(f"planner untouched by the warm run: {session.cache_info() == before}")
    print(f"planner cache: {session.cache_info()}")
    print()

    # The same machinery behind the query layer: cyclic conjunctive queries
    # dispatch to the cyclic subsystem automatically (naive is opt-in only).
    query = ConjunctiveQuery.from_strings(
        ["x", "y"],
        body=[("R1", ["x", "b", "c"]), ("R4", ["b", "c", "d"]),
              ("R5", ["c", "d", "e"]), ("R6", ["d", "e", "y"]),
              ("R2", ["x", "t1"]), ("R3", ["x", "t2"]), ("R7", ["t1", "t2"])],
        name="Endpoints")
    print(query.render())
    print(f"acyclic: {query.is_acyclic()}")
    answers = query.evaluate(database)
    print(f"→ {len(answers)} answers via the cyclic engine "
          f"(same as naive: {len(query.evaluate(database, engine='naive'))})")


if __name__ == "__main__":
    main()
