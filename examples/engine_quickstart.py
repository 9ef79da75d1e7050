"""Quickstart for the semijoin execution engine (``repro.engine``).

Builds the adversarial Fig.-5-style chain database, answers an endpoint
query three ways — naive join, the engine, and a conjunctive query with
engine dispatch — and prints the tuple-count accounting that makes the
paper's Section 7 claim concrete: acyclic joins need never build oversized
intermediates.

Run with::

    PYTHONPATH=src python examples/engine_quickstart.py
"""

from __future__ import annotations

from repro.engine import EngineSession
from repro.generators import chain_hypergraph, generate_database
from repro.queries import ConjunctiveQuery
from repro.relational import DatabaseSchema, naive_join


def main() -> None:
    # An acyclic chain of objects C0C1C2 ⋈ C1C2C3 ⋈ … with many dangling
    # tuples: the worst case for a left-deep plan, the best case for the
    # engine's full reducer.
    hypergraph = chain_hypergraph(5, arity=3, overlap=2)
    schema = DatabaseSchema.from_hypergraph(hypergraph)
    database = generate_database(schema, universe_rows=80, domain_size=4,
                                 dangling_fraction=0.6, seed=42)
    endpoints = ("C0", "C6")
    print(database.describe())
    print()

    slow, naive_stats = naive_join(database, endpoints)
    print(naive_stats.describe())

    # The session is the engine's entry point: prepare resolves dispatch and
    # the structure plan once, execute is the (re-runnable) hot path.
    session = EngineSession(adaptive=False)
    prepared = session.prepare(database, endpoints)
    fast = prepared.execute(database)
    print(fast.statistics.describe())
    assert frozenset(fast.relation.rows) == frozenset(slow.rows)
    print()
    print(f"naive max intermediate : {naive_stats.max_intermediate}")
    print(f"engine max intermediate: {fast.statistics.max_intermediate} "
          f"(output {fast.statistics.output_size} + largest reduced input "
          f"{fast.statistics.max_reduced_input})")
    print()

    # The compiled plan: join tree + full-reducer semijoin program.
    print(fast.plan.describe())
    print()

    # Re-running the prepared query does zero planning work (no GYO /
    # join-tree analysis — not even a plan-cache lookup).
    before = session.cache_info()
    again = prepared.execute(database)
    print(f"second run plan cache hit: {again.statistics.plan_cache_hit}")
    print(f"planner untouched by the warm run: {session.cache_info() == before}")
    print(f"planner cache: {session.cache_info()}")
    print()

    # The same machinery behind the query layer: acyclic conjunctive queries
    # dispatch to the engine automatically.
    query = ConjunctiveQuery.from_strings(
        ["x", "y"],
        body=[("R1", ["x", "b", "c"]), ("R2", ["b", "c", "d"]),
              ("R3", ["c", "d", "e"]), ("R4", ["d", "e", "f"]),
              ("R5", ["e", "f", "y"])],
        name="Endpoints")
    answers = query.evaluate(database, engine="yannakakis")
    print(f"{query.render()}")
    print(f"→ {len(answers)} answers via the engine "
          f"(same as naive: {len(query.evaluate(database, engine='naive'))})")


if __name__ == "__main__":
    main()
