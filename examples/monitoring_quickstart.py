"""Quickstart for the operational monitoring subsystem.

``EngineSession(monitor=...)`` attaches a ``SessionMonitor`` that records
every prepared-query execution into a bounded **query log**, folds each
adaptive run's estimated-vs-actual cardinalities into per-fingerprint
**q-error** records, and publishes every cache's counts (counters) and
sizes (gauges) at scrape time.
The query service's HTTP listener, ``ServiceServer(QueryService(session))``,
then serves all of it over live HTTP — no database needs registering, and
executes made on ``session`` directly land in the monitor it serves:

* ``GET /metrics``  — Prometheus text exposition (counters, histograms,
  the freshly-polled cache report);
* ``GET /health``   — liveness JSON (uptime, queries, errors, drift);
* ``GET /querylog`` — the ring buffer + rolling p50/p95/p99 history;
* ``GET /quality``  — per-fingerprint q-error accounting.

Run with::

    PYTHONPATH=src python examples/monitoring_quickstart.py
"""

from __future__ import annotations

import json

from repro.analysis import plan_quality_table, query_log_table
from repro.engine import EngineSession
from repro.exceptions import SchemaError
from repro.generators import skewed_chain_database, skewed_chain_endpoints
from repro.service import QueryService, ServiceClient, ServiceServer
from repro.telemetry import MonitorConfig, validate_query_log


def main() -> None:
    # A monitor with a slow-query threshold: runs at or above 1ms are
    # flagged, and the *next* run of the offending query captures its full
    # span trace into the log entry (steady-state traffic stays untraced).
    session = EngineSession(monitor=MonitorConfig(log_capacity=64,
                                                  slow_query_seconds=0.001))
    monitor = session.monitor

    chain = 4
    databases = [skewed_chain_database(chain, heads=6, fanout=4,
                                       junction_values=2, seed=seed)
                 for seed in range(3)]
    prepared = session.prepare(databases[0], skewed_chain_endpoints(chain),
                               name="chain-endpoints")

    with ServiceServer(QueryService(session)) as server, \
            ServiceClient(server.url) as client:
        print(f"monitoring endpoint live at {server.url}")

        # A small serving burst — every execution lands in the query log.
        for _ in range(5):
            prepared.execute_many(databases)

        # One induced failure: the wrong database's schema. The error is
        # re-raised to the caller *and* recorded in the log.
        try:
            prepared.execute(skewed_chain_database(chain + 1))
        except SchemaError as error:
            print(f"induced error (also in the log): {error}")

        # --- scrape the live endpoint, exactly as Prometheus would ------- #
        metrics_text = client.metrics_text()
        interesting = [line for line in metrics_text.splitlines()
                       if line.startswith(("engine_queries_total",
                                           'engine_cache_entries{cache="planner"}',
                                           "engine_querylog_entries",
                                           "engine_database_rows"))]
        print("\n/metrics (excerpt):")
        for line in interesting:
            print(f"  {line}")

        print("\n/health:", json.dumps(client.health(), indent=2))

        summary = validate_query_log(client.querylog(limit=8))
        print(f"\n/querylog validates against querylog_schema.json: {summary}")

        quality = client.get_json("/quality")
        print(f"/quality tracks {len(quality['fingerprints'])} fingerprint(s)")

    # --- the same state, rendered locally -------------------------------- #
    print()
    print(query_log_table(monitor.log.entries(limit=8),
                          title="query log (newest 8)"))
    print()
    print(plan_quality_table(monitor.quality,
                             title="plan quality (q-error per fingerprint)"))
    print()
    history = monitor.history(window_seconds=300.0)
    for entry in history:
        print(f"rolling {entry.query!r}: {entry.runs} runs "
              f"p50={entry.p50_seconds * 1000:.2f}ms "
              f"p95={entry.p95_seconds * 1000:.2f}ms "
              f"p99={entry.p99_seconds * 1000:.2f}ms "
              f"({entry.qps:.2f} q/s, {entry.errors} errors)")
    print(monitor.describe())


if __name__ == "__main__":
    main()
