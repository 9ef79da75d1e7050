"""E-SERVICE — concurrent clients against the query service vs a serial loop.

The service claim: a pool-backed asyncio front-end turns one
``EngineSession`` into a server that *overlaps* request handling — JSON
parsing, socket I/O and admission bookkeeping of one request proceed while
another executes — so N concurrent clients sustain materially more QPS than
the same N requests issued one at a time by a single client.

The server runs as a **subprocess** (``python -m repro.service --serve``),
exactly as deployed: client-side JSON/HTTP work and server-side execution
live in different processes with independent GILs, which is where the
concurrency actually pays.  The serial baseline is the same client, the
same prepared handle, the same request body — just one request in flight at
a time.

Acceptance: on a multi-core host (``os.cpu_count() >= 2``) the concurrent
burst must reach ≥ 2× the serial single-client QPS.  On a single core the
2× bar is physically unreachable (client and server threads time-share one
CPU), so the numbers are recorded to ``BENCH_service.json`` without gating.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.analysis import banner
from repro.engine import EngineSession
from repro.engine.columnar import default_column_backend
from repro.generators import skewed_chain_database, skewed_chain_endpoints
from repro.service import ServiceClient

CLIENTS = 8
REQUESTS_PER_CLIENT = 40
SERIAL_REQUESTS = CLIENTS * REQUESTS_PER_CLIENT

#: Where the CI smoke step picks up the headline numbers.
RESULT_PATH = Path("BENCH_service.json")

#: The ≥2x client-concurrency gate needs real parallel hardware.
MULTI_CORE = (os.cpu_count() or 1) >= 2


def _merge_into_results(extra):
    """Fold ``extra`` into ``BENCH_service.json`` (test order is not fixed)."""
    payload = {}
    if RESULT_PATH.exists():
        payload = json.loads(RESULT_PATH.read_text(encoding="utf-8"))
    payload.update(extra)
    payload["cpu_count"] = os.cpu_count() or 1
    payload["backend"] = default_column_backend()
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                           encoding="utf-8")


@pytest.fixture(scope="module")
def server_url():
    """A service subprocess on a free port; torn down after the module."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    url = None
    deadline = time.monotonic() + 30.0
    try:
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                break
            if line.startswith("SERVING "):
                url = line.split(None, 1)[1].strip()
                break
        if url is None:
            process.kill()
            raise RuntimeError("the service subprocess never came up")
        yield url
    finally:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()


def _prepared_client(url, client_id):
    client = ServiceClient(url, client_id=client_id)
    handle = client.prepare(
        "chain", outputs=[str(a) for a in skewed_chain_endpoints(3)],
        name=f"bench-{client_id}")
    # One warm call: binding resolved, caches built, keep-alive established.
    client.execute(handle, "chain", include_rows=False)
    return client, handle


def _serial_qps(url):
    client, handle = _prepared_client(url, "bench-serial")
    started = time.perf_counter()
    for _ in range(SERIAL_REQUESTS):
        client.execute(handle, "chain", include_rows=False)
    elapsed = time.perf_counter() - started
    client.close()
    return SERIAL_REQUESTS / elapsed, elapsed


def _concurrent_qps(url):
    clients = [_prepared_client(url, f"bench-{index}")
               for index in range(CLIENTS)]
    barrier = threading.Barrier(CLIENTS + 1)
    errors = []

    def worker(client, handle):
        try:
            barrier.wait(timeout=30)
            for _ in range(REQUESTS_PER_CLIENT):
                client.execute(handle, "chain", include_rows=False)
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=worker, args=pair) for pair in clients]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=30)
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=120)
    elapsed = time.perf_counter() - started
    for client, _ in clients:
        client.close()
    if errors:
        raise errors[0]
    return SERIAL_REQUESTS / elapsed, elapsed


def test_concurrent_clients_vs_serial_loop(server_url):
    """The tentpole acceptance: concurrent QPS ≥ 2× serial (multi-core)."""
    # Interleave a warm-up of both shapes before timing either.
    serial_qps, serial_seconds = _serial_qps(server_url)
    concurrent_qps, concurrent_seconds = _concurrent_qps(server_url)
    speedup = concurrent_qps / serial_qps

    print(banner("E-SERVICE: concurrent clients vs one serial client"))
    print(f"serial    : {SERIAL_REQUESTS} requests in "
          f"{serial_seconds * 1000:.1f} ms ({serial_qps:.0f} q/s)")
    print(f"concurrent: {CLIENTS} clients x {REQUESTS_PER_CLIENT} requests in "
          f"{concurrent_seconds * 1000:.1f} ms ({concurrent_qps:.0f} q/s)")
    print(f"speedup   : {speedup:.2f}x  (cpu_count={os.cpu_count()}, "
          f"gated={MULTI_CORE})")

    _merge_into_results({
        "workload": f"{CLIENTS} clients x {REQUESTS_PER_CLIENT} execute "
                    "requests vs the same total serially",
        "cpu_count": os.cpu_count(),
        "gated": MULTI_CORE,
        "serial_qps": round(serial_qps, 1),
        "concurrent_qps": round(concurrent_qps, 1),
        "speedup": round(speedup, 2),
    })

    # Sanity floor everywhere: concurrency must never *lose* badly to the
    # serial loop (admission thrash, lock contention, connection churn).
    assert speedup > 0.5, \
        f"concurrent clients collapsed to {speedup:.2f}x of serial"
    if MULTI_CORE:
        assert speedup >= 2.0, \
            f"concurrent clients only reached {speedup:.2f}x (need 2x)"


def test_service_answers_match_the_engine(server_url):
    """The served rows are byte-identical to an in-process execution."""
    database = skewed_chain_database(3, heads=12, fanout=6,
                                     junction_values=4, seed=7)
    endpoints = skewed_chain_endpoints(3)
    direct = EngineSession().execute(database, database, endpoints)

    client, handle = _prepared_client(server_url, "bench-verify")
    answer = client.execute(handle, "chain")
    client.close()

    expected = sorted([list(row[a] for a in direct.relation.attributes)
                       for row in direct.relation.rows], key=repr)
    assert answer["row_count"] == len(expected)
    assert answer["relation"]["rows"] == expected


def test_in_process_execute_many_overhead(server_url):
    """Record the in-process pool shape too: serial vs max_workers batch.

    Pure-Python execution is GIL-bound, so the in-process pool cannot beat
    serial on compute alone — this records the overhead ratio (should stay
    near 1x) rather than gating on a speedup the interpreter cannot give.
    """
    database = skewed_chain_database(3, heads=12, fanout=6,
                                     junction_values=4, seed=7)
    prepared = EngineSession().prepare(database,
                                       skewed_chain_endpoints(3))
    databases = [database] * 16
    prepared.execute_many(databases)  # warm

    started = time.perf_counter()
    for _ in range(5):
        prepared.execute_many(databases)
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(5):
        prepared.execute_many(databases, max_workers=CLIENTS)
    pooled_seconds = time.perf_counter() - started

    ratio = pooled_seconds / max(serial_seconds, 1e-9)
    print(banner("E-SERVICE: in-process execute_many pool overhead"))
    print(f"serial: {serial_seconds * 1000:.1f} ms   "
          f"pooled: {pooled_seconds * 1000:.1f} ms   ratio {ratio:.2f}x")
    _merge_into_results({"inprocess_pool_ratio": round(ratio, 2)})
    # The pool's bookkeeping must not dominate: stay within 4x of serial
    # even on one core (context switches are not free, correctness is the
    # property suite's job).
    assert ratio < 4.0, f"pool overhead ratio {ratio:.2f}x is pathological"
