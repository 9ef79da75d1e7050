"""E-SHARDED — shard-parallel execution vs the single-shard columnar engine.

The tentpole claim of the sharding layer: hash co-partitioning the workload
on its hottest join key and fanning the reducer + fold out to long-lived
worker *processes* buys real multi-core throughput that one GIL-bound
interpreter cannot, while staying byte-identical to the unsharded engine.

The workload is a large skewed chain (wide fanout funnelled into a narrow
junction) — enough rows that per-shard evaluation dominates the pipe and
merge overheads.  Warm throughput (prepared queries, resident worker pool,
warm per-worker plan caches) of the process executor at ``shards ≈ cores``
is raced against the unsharded columnar engine.

The ≥ 2× gate needs real parallel hardware, so it is asserted only when
``os.cpu_count() >= 4``; on smaller machines the same race still runs and
its numbers are *recorded* (``gated: false``) so CI history keeps the trend.
``BENCH_sharded.json`` carries the headline ratio plus per-shard phase
timings and the partition skew — the two numbers that explain any regression
(one slow shard vs an unbalanced partition).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.analysis import banner, statistics_table
from repro.engine import EngineSession
from repro.engine.columnar import default_column_backend
from repro.engine.sharded import shutdown_shard_executors
from repro.generators import skewed_chain_database, skewed_chain_endpoints

CHAIN_LENGTH = 8
ENDPOINTS = skewed_chain_endpoints(CHAIN_LENGTH)
REPEATS = 20

#: Where the CI smoke step picks up the headline numbers.
RESULT_PATH = Path("BENCH_sharded.json")

CPU_COUNT = os.cpu_count() or 1
#: The ≥2x fan-out gate needs real parallel hardware.
GATED = CPU_COUNT >= 4
SHARDS = max(2, min(4, CPU_COUNT))


@pytest.fixture(scope="module")
def workload():
    """A heavy skewed chain: wide fanout into a narrow junction (~24k rows)."""
    return skewed_chain_database(CHAIN_LENGTH, heads=60, fanout=100,
                                 junction_values=8, seed=21)


@pytest.fixture(scope="module", autouse=True)
def _stop_workers_afterwards():
    yield
    shutdown_shard_executors()


def _warm_prepared(database, **options):
    prepared = EngineSession(**options).prepare(database, ENDPOINTS)
    prepared.execute(database)
    prepared.execute(database)
    return prepared


def _timed_loop(prepared, database, repeats=REPEATS):
    started = time.perf_counter()
    results = [prepared.execute(database) for _ in range(repeats)]
    return time.perf_counter() - started, results


def _shard_breakdown(statistics):
    """Per-shard phase timings + row counts — the skew-vs-straggler view."""
    breakdown = []
    for index, shard_stats in enumerate(statistics.shard_statistics):
        breakdown.append({
            "shard": index,
            "input_rows": statistics.shard_row_counts[index]
            if index < len(statistics.shard_row_counts) else None,
            "output_rows": shard_stats.output_size,
            "phases_ms": {phase: round(seconds * 1000, 4) for phase, seconds
                          in shard_stats.phase_times},
        })
    return breakdown


def test_sharded_process_throughput(workload):
    """The tentpole race: shard-parallel processes vs one columnar engine."""
    print(banner(f"E-SHARDED: {SHARDS}-shard process fan-out vs unsharded "
                 f"({CPU_COUNT} cores, gate {'on' if GATED else 'off'})"))
    baseline = _warm_prepared(workload)
    sharded = _warm_prepared(workload, shards=SHARDS,
                             shard_executor="process")

    baseline_seconds, baseline_results = _timed_loop(baseline, workload)
    sharded_seconds, sharded_results = _timed_loop(sharded, workload)

    for ours, theirs in zip(sharded_results, baseline_results):
        assert frozenset(ours.relation.rows) == \
            frozenset(theirs.relation.rows)
        assert ours.relation.schema.attributes == \
            theirs.relation.schema.attributes

    statistics = sharded_results[-1].statistics
    assert statistics.shards == SHARDS
    assert statistics.shard_executor == "process"

    speedup = baseline_seconds / max(sharded_seconds, 1e-9)
    print(f"unsharded {baseline_seconds * 1000:.1f} ms, "
          f"{SHARDS}-shard process {sharded_seconds * 1000:.1f} ms "
          f"({REPEATS} warm executions) -> {speedup:.2f}x")
    print(statistics_table([baseline_results[-1].statistics, statistics],
                           title="unsharded vs sharded (one warm execution)"))

    RESULT_PATH.write_text(json.dumps({
        "workload": f"skewed-chain({CHAIN_LENGTH}, heads=60, fanout=100, "
                    "junction_values=8)",
        "cpu_count": CPU_COUNT,
        "backend": default_column_backend(),
        "shards": SHARDS,
        "shard_executor": "process",
        "shard_key": str(statistics.shard_key),
        "executions": REPEATS,
        "unsharded_seconds": round(baseline_seconds, 4),
        "sharded_seconds": round(sharded_seconds, 4),
        "unsharded_qps": round(REPEATS / baseline_seconds, 1),
        "sharded_qps": round(REPEATS / sharded_seconds, 1),
        "speedup": round(speedup, 2),
        "gated": GATED,
        "skew": round(statistics.shard_skew, 3)
        if statistics.shard_skew is not None else None,
        "shard_row_counts": list(statistics.shard_row_counts),
        "merge_ms": round(dict(statistics.phase_times).get("merge", 0.0)
                          * 1000, 4),
        "shard_breakdown": _shard_breakdown(statistics),
    }, indent=2) + "\n", encoding="utf-8")

    if GATED:
        assert speedup >= 2.0, \
            (f"{SHARDS}-shard process execution only {speedup:.2f}x the "
             f"unsharded columnar engine on {CPU_COUNT} cores")


def test_sharded_thread_overhead_stays_bounded(workload):
    """The thread executor shares the GIL, so it cannot win on CPU-bound
    work — but partition + merge overhead must stay small (≥ 0.25x warm
    throughput), or in-process sharding would be unusable as the default."""
    baseline = _warm_prepared(workload)
    sharded = _warm_prepared(workload, shards=2, shard_executor="thread")
    baseline_seconds, baseline_results = _timed_loop(baseline, workload)
    sharded_seconds, sharded_results = _timed_loop(sharded, workload)
    assert frozenset(sharded_results[-1].relation.rows) == \
        frozenset(baseline_results[-1].relation.rows)
    ratio = baseline_seconds / max(sharded_seconds, 1e-9)
    print(f"thread sharding: unsharded {baseline_seconds * 1000:.1f} ms vs "
          f"2-shard thread {sharded_seconds * 1000:.1f} ms -> {ratio:.2f}x")
    assert ratio >= 0.25, \
        f"2-shard thread execution fell to {ratio:.2f}x of unsharded"
