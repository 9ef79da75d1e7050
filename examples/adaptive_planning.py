"""Quickstart for adaptive, cardinality-aware planning (``repro.engine.catalog``).

Builds the skewed binary chain — a head relation fanning out to a huge C1
domain, a funnel into four junction values, a tiny tail lookup — where every
tuple participates in the join, so full reduction cannot help and the *fold
order* decides the intermediate sizes.  The static plan roots the join tree
at the lexicographically-first vertex and drags the wide C1 separator through
its intermediates; the adaptive plan reads the database's statistics catalog,
roots at the narrow junction side, and stays at the output size.  The shared
statistics table shows both runs side by side, estimated next to actual.

Run with::

    PYTHONPATH=src python examples/adaptive_planning.py
"""

from __future__ import annotations

from repro.analysis import statistics_table
from repro.engine import EngineSession, QueryPlanner
from repro.generators import skewed_chain_database, skewed_chain_endpoints


def main() -> None:
    # Cardinalities: R1(C0,C1) = 30×20 = 600 rows with 600 distinct C1
    # values; R2(C1,C2) = 600 rows funnelling into 4 distinct C2 values;
    # R3(C2,C3) = 4 lookup rows.  No dangling tuples anywhere.
    database = skewed_chain_database(3, heads=30, fanout=20, junction_values=4,
                                     seed=7)
    endpoints = skewed_chain_endpoints(3)
    print(database.describe())
    print()

    catalog = database.statistics_catalog()
    print(catalog.describe())
    print()

    # Two sessions, one knob apart: adaptive annotation on or off.
    static = EngineSession(adaptive=False).prepare(database, endpoints) \
        .execute(database)
    adaptive = EngineSession(adaptive=True).prepare(database, endpoints) \
        .execute(database)
    assert frozenset(static.relation.rows) == frozenset(adaptive.relation.rows)

    print(statistics_table([static.statistics, adaptive.statistics],
                           title="Static vs adaptive on the skewed chain"))
    print()

    # Phase composition, spelled out: the structure plan is fingerprint-
    # cached; the annotation is per-database and picks the root + fold order.
    planner = QueryPlanner()
    plan = planner.annotate(database.schema.to_hypergraph(), catalog,
                            output_attributes=endpoints)
    print(plan.annotation.describe())
    print(f"annotation moved the root to: "
          f"{sorted(plan.annotation.root) if plan.annotation.root else 'default'}")
    print()

    savings = static.statistics.max_intermediate \
        / max(adaptive.statistics.max_intermediate, 1)
    print(f"largest intermediate: static {static.statistics.max_intermediate} vs "
          f"adaptive {adaptive.statistics.max_intermediate}  ({savings:.1f}x smaller)")
    print(f"catalog predicted {adaptive.statistics.estimated_max_intermediate} — "
          f"measured {adaptive.statistics.max_intermediate}")


if __name__ == "__main__":
    main()
