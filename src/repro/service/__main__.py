"""``python -m repro.service`` — serve the demo service, or smoke-test it.

Two modes:

* ``--serve`` — boot a :class:`~repro.service.server.ServiceServer` over the
  demo databases, print ``SERVING http://host:port`` (machine-parseable —
  the benchmark's server subprocess is driven through exactly this line)
  and run until interrupted.
* default (smoke) — boot the same server in-process, fire a concurrent
  client burst at it (``--clients`` threads × ``--requests`` calls each,
  mixing execute / execute_many / explain / stats), then induce one error
  (the chain query against the ``cycle`` database) and, with the slow-query
  threshold dropped to zero, two slow runs, and checks that a prepare
  naming an option outside the wire whitelist is an ``invalid-param`` 400
  that lists the allowed ones.  It scrapes ``/metrics``,
  ``/health``, ``/querylog`` and ``/quality`` and asserts that every
  execution landed in the query log with **zero dropped entries**, that the
  ``/querylog`` document validates against ``querylog_schema.json``, that
  the induced error is logged and that a slow entry kept its span trace;
  it prints a JSON summary and exits non-zero on any failure.  This is the
  CI ``service-smoke`` job.

The demo data is two named tenants' worth of databases: the skewed
3-relation chain (acyclic dispatch) and a consistent 4-cycle (cyclic
dispatch, cluster cover + acyclic quotient).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from dataclasses import replace
from typing import Any, Dict, List

from ..engine.session import EngineSession
from ..generators import (
    generate_consistent_database,
    k_cycle_hypergraph,
    skewed_chain_database,
    skewed_chain_endpoints,
)
from ..relational.schema import DatabaseSchema
from ..telemetry.monitor import MonitorConfig
from ..telemetry.schema import QueryLogValidationError, validate_query_log
from .client import ServiceCallError, ServiceClient
from .protocol import WIRE_OPTION_FIELDS
from .server import QueryService, ServiceServer


def demo_service(*, log_capacity: int = 4096) -> QueryService:
    """The demo :class:`QueryService`: an acyclic and a cyclic tenant database."""
    session = EngineSession(
        monitor=MonitorConfig(log_capacity=log_capacity))
    service = QueryService(session)
    service.add_database(
        "chain", skewed_chain_database(3, heads=12, fanout=6,
                                       junction_values=4, seed=7))
    cycle_schema = DatabaseSchema.from_hypergraph(k_cycle_hypergraph(4))
    service.add_database(
        "cycle", generate_consistent_database(cycle_schema, universe_rows=40,
                                              domain_size=8, seed=11))
    return service


def _serve(host: str, port: int) -> int:
    service = demo_service()
    with ServiceServer(service, host=host, port=port) as server:
        print(f"SERVING {server.url}", flush=True)
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("shutting down", flush=True)
    return 0


def _client_worker(url: str, worker: int, requests: int,
                   failures: List[str]) -> None:
    """One smoke client: prepare once, then a mixed request loop."""
    try:
        client = ServiceClient(url, client_id=f"smoke-{worker}")
        chain_query = client.prepare(
            "chain", outputs=[str(a) for a in skewed_chain_endpoints(3)],
            name=f"chain-endpoints-{worker}")
        cycle_query = client.prepare("cycle", name=f"cycle-full-{worker}")
        expected_rows = None
        for index in range(requests):
            turn = index % 4
            if turn == 0:
                answer = client.execute(chain_query, "chain")
                if expected_rows is None:
                    expected_rows = answer["row_count"]
                elif answer["row_count"] != expected_rows:
                    failures.append(
                        f"worker {worker}: row count drifted "
                        f"({answer['row_count']} != {expected_rows})")
            elif turn == 1:
                client.execute(cycle_query, "cycle", include_rows=False)
            elif turn == 2:
                batch = client.execute_many(chain_query, ["chain", "chain"],
                                            max_workers=2)
                if len(batch["row_counts"]) != 2:
                    failures.append(f"worker {worker}: short batch")
            else:
                text = client.explain(chain_query)
                if "dispatch" not in text:
                    failures.append(f"worker {worker}: odd explain output")
        client.close()
    except ServiceCallError as error:
        # Overload pushback is the admission gate doing its job under a
        # deliberately oversized burst — anything else is a real failure.
        if error.code not in ("overloaded", "shutting-down"):
            failures.append(f"worker {worker}: {error.code}: {error}")
    except Exception as error:  # noqa: BLE001 - reported, not raised
        failures.append(f"worker {worker}: {type(error).__name__}: {error}")


def _induce_error_and_slow_runs(service: QueryService, client: ServiceClient,
                                failures: List[str]) -> None:
    """One failing execute and two slow ones, for the query log to record.

    The chain query against the ``cycle`` database fails its schema binding.
    With the slow-query threshold at zero every run is slow: the first arms
    slow-query tracing, the second runs traced and keeps its span trace.
    """
    query = client.prepare(
        "chain", outputs=[str(a) for a in skewed_chain_endpoints(3)],
        name="chain-endpoints-traced")
    try:
        client.execute(query, "cycle", include_rows=False)
        failures.append("the chain query ran against the cycle database")
    except ServiceCallError as error:
        if error.code != "engine-error":
            failures.append(f"induced error came back as {error.code}")
    monitor = service.monitor
    monitor.config = replace(monitor.config, slow_query_seconds=0.0)
    for _ in range(2):
        client.execute(query, "chain", include_rows=False)


def _check_wire_options(client: ServiceClient, failures: List[str]) -> None:
    """A prepare naming a non-wire option (``trace``) is a typed 400."""
    try:
        client.prepare("chain", options={"trace": True})
        failures.append("a prepare with options.trace was accepted")
    except ServiceCallError as error:
        if (error.http_status, error.code) != (400, "invalid-param"):
            failures.append(f"options.trace came back as {error.http_status} "
                            f"{error.code}")
        elif str(sorted(WIRE_OPTION_FIELDS)) not in str(error):
            failures.append("the invalid-param message does not list the "
                            "wire options")


def _smoke(host: str, port: int, clients: int, requests: int) -> int:
    service = demo_service(log_capacity=max(4096, clients * requests * 4))
    failures: List[str] = []
    with ServiceServer(service, host=host, port=port) as server:
        started = time.perf_counter()
        threads = [threading.Thread(target=_client_worker,
                                    args=(server.url, worker, requests,
                                          failures),
                                    name=f"smoke-client-{worker}")
                   for worker in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started

        scraper = ServiceClient(server.url, client_id="smoke-scraper")
        _induce_error_and_slow_runs(service, scraper, failures)
        _check_wire_options(scraper, failures)
        metrics = scraper.metrics_text()
        health = scraper.health()
        querylog = scraper.querylog()
        quality_status, _, _ = scraper.get("/quality")
        stats = scraper.stats()
        scraper.close()

    # -------------------------------------------------------------- #
    # Assertions
    # -------------------------------------------------------------- #
    for required in ("engine_queries_total", "engine_query_errors_total",
                     'engine_cache_entries{cache="planner"}',
                     'engine_cache_entries{cache="column_block"}',
                     "engine_cache_hits_total", "engine_querylog_entries"):
        if required not in metrics:
            failures.append(f"/metrics is missing {required}")
    typed = [line.split()[2:4] for line in metrics.splitlines()
             if line.startswith("# TYPE ")]
    names = [name for name, _ in typed]
    for repeated in sorted({name for name in names if names.count(name) > 1}):
        failures.append(f"/metrics repeats the # TYPE line of {repeated}")
    for name, kind in typed:
        if name.endswith("_total") and kind != "counter":
            failures.append(f"/metrics types the count {name} as a {kind}")
    if quality_status != 200:
        failures.append(f"/quality answered HTTP {quality_status}")
    try:
        validate_query_log(querylog)
    except QueryLogValidationError as error:
        failures.append(f"/querylog does not validate: {error}")
    entries = querylog.get("entries", [])
    if not any(entry.get("error") for entry in entries):
        failures.append("the induced error never reached the query log")
    if not any(entry.get("slow") and entry.get("traced")
               for entry in entries):
        failures.append("no slow query log entry retained its trace")
    if health.get("status") != "ok":
        failures.append(f"/health status is {health.get('status')!r}")
    dropped = querylog.get("dropped", -1)
    if dropped != 0:
        failures.append(f"query log dropped {dropped} entries (expected 0)")
    recorded = querylog.get("recorded", 0)
    if recorded <= 0:
        failures.append("query log recorded nothing")
    admission = stats.get("admission", {})
    if admission.get("in_flight", -1) != 0:
        failures.append("in-flight count did not return to zero")

    summary: Dict[str, Any] = {
        "ok": not failures,
        "clients": clients,
        "requests_per_client": requests,
        "elapsed_seconds": round(elapsed, 3),
        "querylog": {"recorded": recorded, "dropped": dropped},
        "health": health,
        "admission": {key: admission.get(key)
                      for key in ("admitted_total", "rejected_queue_full",
                                  "rejected_timeout", "in_flight")},
        "failures": failures,
    }
    print(json.dumps(summary, indent=2, default=str))
    return 0 if not failures else 1


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve the demo query service, or smoke-test it "
                    "with a concurrent client burst.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="port to bind (0 = any free port)")
    parser.add_argument("--serve", action="store_true",
                        help="serve until interrupted instead of smoking")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent smoke clients (default 8)")
    parser.add_argument("--requests", type=int, default=12,
                        help="requests per smoke client (default 12)")
    arguments = parser.parse_args(argv)
    if arguments.serve:
        return _serve(arguments.host, arguments.port)
    return _smoke(arguments.host, arguments.port,
                  max(1, arguments.clients), max(1, arguments.requests))


if __name__ == "__main__":
    sys.exit(main())
