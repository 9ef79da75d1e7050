"""Quickstart for the unified engine facade (``repro.engine.session``).

One ``EngineSession`` owns everything the previous entry points scattered:
the planner and its LRU plan cache, per-database statistics catalogs
and execution options.  ``session.prepare(...)`` resolves
acyclic-vs-cyclic dispatch and structure planning exactly once; the returned
``PreparedQuery`` then executes against one database (``execute``) or a
whole batch (``execute_many``) with **zero** planning work on the warm path
— the prepare-once / execute-many shape a serving system needs.

Run with::

    PYTHONPATH=src python examples/session_quickstart.py
"""

from __future__ import annotations

from repro.analysis import statistics_table
from repro.engine import EngineSession
from repro.generators import (
    generate_database,
    skewed_chain_database,
    skewed_chain_endpoints,
    triangle_core_chain,
)
from repro.queries import ConjunctiveQuery
from repro.relational import DatabaseSchema


def main() -> None:
    session = EngineSession()

    # --- prepare once ---------------------------------------------------- #
    database = skewed_chain_database(3, heads=30, fanout=20,
                                     junction_values=4, seed=7)
    endpoints = skewed_chain_endpoints(3)
    prepared = session.prepare(database, endpoints)
    print(f"dispatch resolved at prepare time: {prepared.kind}")
    print(session.describe())
    print()

    # --- execute many ---------------------------------------------------- #
    # Fresh traffic: the same schema with different instances (think shards
    # or daily snapshots).  One catalog measurement per database, shared hash
    # indexes, plans resolved exactly once per database.
    shards = [skewed_chain_database(3, heads=30, fanout=20, junction_values=4,
                                    seed=seed) for seed in (7, 8, 9)]
    batch = prepared.execute_many(shards, labels=["mon", "tue", "wed"])
    print(statistics_table([batch.statistics],
                           title="execute_many: per-database breakdown + totals"))
    print()

    # --- the warm path does zero planning work --------------------------- #
    before = session.cache_info()
    batch = prepared.execute_many(shards)
    assert session.cache_info() == before, "warm batch must not touch the planner"
    print(f"warm batch: {batch.statistics.describe()}")
    print(f"planner untouched: {session.cache_info()}")
    print()

    # --- explain --------------------------------------------------------- #
    print(prepared.explain(shards[0]))
    print()

    # --- cyclic schemas go through the same facade ----------------------- #
    cyclic_schema = DatabaseSchema.from_hypergraph(triangle_core_chain(4))
    cyclic_db = generate_database(cyclic_schema, universe_rows=60,
                                  domain_size=4, dangling_fraction=0.5, seed=3)
    cyclic_prepared = session.prepare(cyclic_db, ("C0", "C5"))
    print(f"cyclic dispatch: {cyclic_prepared.kind}")
    result = cyclic_prepared.execute(cyclic_db)
    print(f"cyclic answer: {len(result.relation)} rows, "
          f"clusters {list(result.statistics.cluster_sizes)}")
    print()

    # --- conjunctive queries ride the same session ----------------------- #
    query = ConjunctiveQuery.from_strings(
        ["x", "y"],
        body=[("R1", ["x", "m"]), ("R2", ["m", "n"]), ("R3", ["n", "y"])],
        name="Endpoints")
    answers = query.evaluate(database)  # routed through the default session
    print(f"{query.render()} → {len(answers)} answers")


if __name__ == "__main__":
    main()
