"""The benchmark's server child: one ``QueryService`` over a workload's databases.

Started by :class:`workloads.ServerChild`.  Generates the workload's inputs
from the seed (reporting how long that took, so the runner can keep input
generation out of ``setup_s``), registers each database under its query's
name, binds a free port, writes the port file and prints one ``READY {...}``
line.  Runs until SIGTERM, then drains and removes the port file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin this process to one CPU")
    arguments = parser.parse_args()
    if arguments.cpu is not None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {arguments.cpu})

    from repro.engine import EngineSession
    from repro.service import QueryService, ServiceServer

    from workloads import PORT_FILE, build_queries

    started = time.perf_counter()
    queries = build_queries(arguments.workload, arguments.seed, arguments.scale)
    generation_s = time.perf_counter() - started

    service = QueryService(EngineSession(monitor=True))
    for query in queries:
        service.add_database(query.name, query.database)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    with ServiceServer(service) as server:
        document = {"url": server.url, "pid": os.getpid(),
                    "generation_s": generation_s}
        PORT_FILE.write_text(json.dumps(document), encoding="utf-8")
        try:
            print("READY " + json.dumps(document), flush=True)
            stop.wait()
        finally:
            PORT_FILE.unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
