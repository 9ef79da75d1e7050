"""One workload in one process: inputs, set-up, rounds, and a JSON document on stdout.

``run.py`` starts this file once per workload with the hash seed fixed and
the engine's environment switches scrubbed.  Everything printed before the
last line is for people; the last line is the result document ``run.py``
parses.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional

from metrics import (
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    Round,
    child_cpu_s,
    median,
    median_of_rounds,
    peak_rss_mb,
    quantile,
    reset_own_peak_rss,
    slowdown,
    timed_kernel,
)

HERE = Path(__file__).resolve().parent

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import repro.engine; "
                 "print(time.perf_counter() - t)")


def pin_cpu() -> Optional[int]:
    """Pin this process to one CPU; the server child is pinned to the same one.

    The loop is closed with one caller, so exactly one of the two processes
    runs at any time.  On one CPU nothing migrates, no request pays a
    cross-CPU wake-up, and the speed kernel measures the CPU both run on:
    with the server on the other CPU the service's p75 spread across ten
    seeds was 8 to 11 % and ``setup_s`` 27 %; on the same CPU, 3 % and 5 %.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_seconds() -> float:
    """``import repro.engine`` timed in a fresh interpreter."""
    output = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], check=True,
                            stdout=subprocess.PIPE, text=True).stdout
    return float(output)


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, check=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def environment_stamp(arguments, cpu, operations: int, rounds: int) -> Dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        from repro.engine import default_column_backend
        backend = default_column_backend()
    except ImportError:
        backend = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "affinity": {"workload": cpu, "server": cpu},
        "python": platform.python_version(),
        "numpy": numpy_version,
        "column_backend": backend,
        "git_sha": git_sha(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "seed": arguments.seed,
        "scale": arguments.scale,
        "seconds": arguments.seconds,
        "operations_per_round": operations,
        "rounds": rounds,
    }


def run_round(workload, first: int, operations: int) -> Round:
    """One closed-loop round: untimed preparation, timed call, untimed check."""
    round_ = Round()
    server = workload.server()
    kernel_every = max(1, operations // 50)
    gc.collect()
    server_cpu = child_cpu_s(server.pid) if server else 0.0
    for index in range(first, first + operations):
        query = workload.query_at(index)
        call = workload.operation(query, workload.database_for(query))
        round_.attempted += 1
        cpu_started = process_time()
        started = perf_counter()
        try:
            outcome = call()
            wall = perf_counter() - started
            cpu = process_time() - cpu_started
            correct = workload.matches(query, outcome)
        except Exception as error:  # noqa: BLE001 - a failed operation, counted
            print(f"operation {index} ({query.name}) failed: "
                  f"{type(error).__name__}: {error}", file=sys.stderr)
            correct = False
        if correct:
            round_.record(query.klass, wall, cpu)
        else:
            round_.failed += 1
        if index % kernel_every == 0:
            round_.kernel_s.append(timed_kernel())
    round_.peak_rss_mb = peak_rss_mb()
    if server:
        round_.cpu_s += child_cpu_s(server.pid) - server_cpu
        round_.peak_rss_mb += peak_rss_mb(server.pid)
    # Raw timings.  p90 and p99 are detail only: 5 to 8 % of the hot cyclic
    # and service calls run into a 30 ms full collection, so p90 sits on the
    # edge of that cliff and p99 on top of it.
    print(f"round from op {first}: x{slowdown(round_.kernel_s):.3f} reference time  " + "  ".join(
        f"{klass} p50/p75/p90/p99 " + "/".join(
            f"{quantile(samples, q) * 1e3:.2f}" for q in (0.5, 0.75, 0.9, 0.99)) + " ms"
        for klass, samples in round_.latency_s.items() if samples), file=sys.stderr)
    return round_


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--out", required=True)
    arguments = parser.parse_args()
    cpu = pin_cpu()

    import workloads as w

    spec = w.SCALES[arguments.scale]
    queries = w.build_queries(arguments.workload, arguments.seed, arguments.scale)
    workload = w.make_workload(arguments.workload, queries, seed=arguments.seed,
                               scale=arguments.scale, server_cpu=cpu)
    cycle = workload.cycle
    counts = spec["trace_ops_per_round" if arguments.trace else "ops_per_round"]
    operations = counts[arguments.workload]
    if arguments.scale == "full":
        operations = operations * arguments.seconds / w.RUN_SECONDS
    operations = max(cycle, int(round(operations / cycle)) * cycle)
    rounds = 2 if arguments.trace else spec["rounds"]
    stamp = environment_stamp(arguments, cpu, operations, rounds)
    print("environment: " + json.dumps(stamp), file=sys.stderr)

    w.attach_expected(queries)
    reset_own_peak_rss()
    out = Path(arguments.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        setups: List[float] = []
        # The traced run reports no set-up time; it only needs the state.
        for _ in range(1 if arguments.trace else spec["setup_repeats"]):
            kernel_s = [timed_kernel() for _ in range(20)]
            imported = import_seconds() if workload.in_process else 0.0
            seconds = imported + workload.setup()
            kernel_s += [timed_kernel() for _ in range(20)]
            setups.append(seconds / slowdown(kernel_s))
        if not workload.in_process:
            # This process is only the load generator here: its own full
            # collections (30 ms over the reference data it holds) would be
            # charged to the service's latency.  GC stays enabled.
            gc.collect()
            gc.freeze()
        if arguments.trace:
            from probes import TracedRun

            traced = TracedRun(workload, seed=arguments.seed, scale=arguments.scale,
                               server_cpu=cpu)
            try:
                traced.run(operations, rounds)
                values = traced.layer_metrics()
                traced.spans.write(out / "spans.jsonl")
            finally:
                traced.close()
            attempted, failed = traced.attempted, traced.failed
            units = PER_LAYER
        else:
            warm_up = workload.warm_up(operations)
            run_round(workload, 0, warm_up)
            measured = [run_round(workload, warm_up + index * operations, operations)
                        for index in range(rounds)]
            values = median_of_rounds(measured)
            values["setup_s"] = median(setups)
            attempted = sum(round_.attempted for round_ in measured)
            failed = sum(round_.failed for round_ in measured)
            units = END_TO_END
    finally:
        workload.close()

    document = {
        "workload": arguments.workload,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "environment": stamp,
    }
    (out / "result.json").write_text(json.dumps(document, indent=2) + "\n",
                                     encoding="utf-8")
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
