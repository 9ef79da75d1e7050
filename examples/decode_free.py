"""Typed storage & batched kernels: backends, decode-free results, cache telemetry.

PR 8 rebuilt the columnar physical layer on **typed id arrays**: every
column is an ``array('q')`` of dense interned value ids, and the kernels
probe whole position vectors through a pluggable compute backend — the
pure-Python ``array`` backend (always available; C-level ``map``/``zip``/
``compress`` pipelines) or the ``numpy`` backend (zero-copy ``int64``
views, ``searchsorted`` membership) when numpy is installed.

This example shows the three knobs that exposes:

* ``column_backend=`` — pick the compute backend per session (results are
  byte-identical; only wall-clock changes);
* ``decode="block"`` — skip the result-decoding phase entirely: the answer
  stays a :class:`ColumnBlock` of interned ids, and ``result.decoded()``
  materialises rows only if and when you need them;
* ``column_cache_info()`` — watch the memoised semijoin outcomes that make
  warm re-executions nearly decode- and probe-free.

Run with::

    PYTHONPATH=src python examples/decode_free.py
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.analysis import statistics_table
from repro.engine import (
    EngineSession,
    available_column_backends,
    clear_column_caches,
    column_cache_info,
)
from repro.generators import skewed_chain_database, skewed_chain_endpoints


def main() -> None:
    database = skewed_chain_database(6, heads=30, fanout=20,
                                     junction_values=4, seed=7)
    endpoints = skewed_chain_endpoints(6)
    print(f"column backends available here: {available_column_backends()}")
    print()

    # --- the same answer from every backend ------------------------------ #
    results = {}
    for backend in available_column_backends():
        session = EngineSession(column_backend=backend)
        results[backend] = session.prepare(database, endpoints).execute(database)
    rows = {frozenset(r.relation.rows) for r in results.values()}
    assert len(rows) == 1, "backends must agree bit for bit"
    print(statistics_table(
        [replace(r.statistics, plan_name=f"{r.statistics.plan_name} [{backend}]")
         for backend, r in results.items()],
        title="one execution per backend (identical answers)"))
    print()

    # --- decode-free execution ------------------------------------------- #
    # A serving tier that feeds the block straight into the next operator
    # (or only counts rows) never pays for Row materialisation.
    session = EngineSession(decode="block")
    prepared = session.prepare(database, endpoints)
    deferred = prepared.execute(database)
    assert deferred.relation is None
    print(f'decode="block": result is a {len(deferred.block)}-row column block;'
          f" decode phase took {dict(deferred.statistics.phase_times)['decode']:.6f}s")
    relation = deferred.decoded()  # pay for rows only on demand
    print(f"decoded lazily on request: {len(relation)} rows, "
          f"schema {relation.schema.attributes}")
    print()

    # --- warm executions ride the memoised semijoin outcomes --------------- #
    # The counts are cumulative (a clear keeps them), so read deltas.
    clear_column_caches()
    prepared = EngineSession().prepare(database, endpoints)
    start = column_cache_info()
    started = time.perf_counter()
    prepared.execute(database)
    cold_seconds = time.perf_counter() - started
    cold = column_cache_info()
    started = time.perf_counter()
    prepared.execute(database)
    warm_seconds = time.perf_counter() - started
    warm = column_cache_info()
    print(f"cold execution {cold_seconds * 1000:.1f} ms "
          f"({cold['keyset_misses'] - start['keyset_misses']} membership "
          f"structures built), "
          f"warm {warm_seconds * 1000:.1f} ms "
          f"({warm['keyset_hits'] - cold['keyset_hits']} semijoin memo hits, "
          f"{warm['keyset_misses'] - cold['keyset_misses']} builds)")


if __name__ == "__main__":
    main()
