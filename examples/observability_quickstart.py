"""Quickstart for the observability layer (``repro.telemetry``).

Three pillars, all zero-dependency:

* **Span tracing** — install a ``Tracer`` with ``use_tracer`` and every
  engine layer emits nested spans:
  ``prepare`` / ``annotate`` / ``cover_search`` / ``encode`` / ``reduce`` /
  ``fold`` / ``decode`` plus one ``kernel:*`` span per physical semijoin or
  join, each carrying wall-time and cardinalities.  Export to JSONL with
  ``JsonlTraceSink``.
* **Metrics** — every ``EngineSession`` owns a registry of
  query/row/latency counters and histograms;
  ``render_prometheus()`` emits the standard text exposition format.
* **EXPLAIN ANALYZE** — ``prepared.explain(db, analyze=True)`` executes the
  query under a recording tracer and renders the plan annotated with
  estimated vs actual per-vertex cardinalities.

Run with::

    PYTHONPATH=src python examples/observability_quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.analysis import trace_tree
from repro.engine import EngineSession
from repro.generators import skewed_chain_database, skewed_chain_endpoints
from repro.relational import Database
from repro.telemetry import (
    JsonlTraceSink,
    Tracer,
    read_jsonl,
    span_totals,
    use_tracer,
    validate_trace_records,
)


def main() -> None:
    session = EngineSession()
    database = skewed_chain_database(3, heads=30, fanout=20,
                                     junction_values=4, seed=7)
    prepared = session.prepare(database, skewed_chain_endpoints(3))

    # --- span tracing ----------------------------------------------------- #
    # An explicitly installed tracer captures every span the engine emits;
    # without one, the ambient NULL_TRACER makes all of this a no-op.
    tracer = Tracer()
    with use_tracer(tracer):
        result = prepared.execute(database)
    print(f"{len(result.relation)} rows, {len(tracer.records)} spans recorded")
    print(trace_tree(tracer.records))
    print()

    # Per-span-name wall-time rollup — where did the time go?
    totals = span_totals(tracer.records)
    for name, seconds in sorted(totals.items(), key=lambda item: -item[1]):
        print(f"  {name:<18} {seconds * 1000:8.3f} ms")
    print()

    # --- JSONL export + schema validation --------------------------------- #
    # A second execute on ``database`` would be served from the prepared
    # query's stored outcome and open only ``prepare`` and ``execute``.  A
    # second Database over the same relations is bound anew, so its first
    # execute is a real run with every phase and kernel span.
    rebound = Database(database.schema, {relation.name: relation
                                         for relation in database.relations()})
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.jsonl"
        jsonl_tracer = Tracer()
        with JsonlTraceSink(path) as sink:
            jsonl_tracer.add_sink(sink)
            with use_tracer(jsonl_tracer):
                prepared.execute(rebound)
        records = read_jsonl(path)
        summary = validate_trace_records(records)
        print(f"JSONL trace: {summary['records']} records, "
              f"{summary['roots']} root span(s), schema OK")
    print()

    # --- metrics ---------------------------------------------------------- #
    # The session recorded both executions above; histograms capture query
    # and per-phase latency, counters capture rows/steps/cache traffic.
    print(session.metrics.render_prometheus())

    # --- EXPLAIN ANALYZE -------------------------------------------------- #
    # Executes under a private recording tracer; actual cardinalities come
    # from the spans, estimates from the planner's cost annotation.
    print(prepared.explain(database, analyze=True))


if __name__ == "__main__":
    main()
