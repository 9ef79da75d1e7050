"""Smoke test of the repository benchmark (``benchmarks/e2e``), at ``--scale smoke``.

Runs all four workloads once and the traced pass twice, and checks what the
benchmark contract and later issues rely on: every name declared in
``BENCHMARK.json`` is printed exactly once with the declared unit and a finite
value, no operation fails, the last line is the contract's JSON object, and
program-side counts repeat exactly between two runs.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Dict, Tuple

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in DECLARED["workloads"]]

#: Units whose values are counted by the program, not timed.  ``bytes`` is
#: left out: the service payload carries the run's phase timings as text.
COUNTED_UNITS = {"count", "rows", "ratio"}


def run_benchmark(*arguments: str) -> str:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", "--seed", "7", *arguments],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def printed_metrics(output: str) -> Dict[str, Dict[str, Tuple[float, str]]]:
    """``{workload: {metric: (value, unit)}}`` from the human-readable lines."""
    blocks: Dict[str, Dict[str, Tuple[float, str]]] = {}
    for line in output.splitlines():
        if line.startswith("workload "):
            name = line.split()[1].rstrip(":")
            assert line.endswith("failed 0"), line
            current = blocks[name] = {}
        elif line.startswith("  "):
            metric, value, unit = line.split()
            assert metric not in current, f"{metric} printed twice"
            current[metric] = (float(value), unit)
    return blocks


def check_block(block: Dict[str, Tuple[float, str]], declared) -> None:
    assert list(block) == [entry["name"] for entry in declared]
    for entry in declared:
        value, unit = block[entry["name"]]
        assert unit == entry["unit"], entry["name"]
        assert math.isfinite(value), entry["name"]


def test_every_workload_prints_every_end_to_end_metric():
    output = run_benchmark("--workload", "all")
    blocks = printed_metrics(output)
    assert list(blocks) == WORKLOADS
    for name in WORKLOADS:
        check_block(blocks[name], DECLARED["end_to_end"])
        assert all(value > 0 for value, _ in blocks[name].values()), name
    last = json.loads(output.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in last["metrics"].items()} == \
        {entry["name"]: entry["unit"] for entry in DECLARED["end_to_end"]}


def test_traced_pass_prints_every_layer_metric_and_counts_repeat():
    runs = [printed_metrics(run_benchmark("--workload", "hot_repeat", "--trace", "1"))
            for _ in range(2)]
    for blocks in runs:
        check_block(blocks["hot_repeat"], DECLARED["per_layer"])
    first, second = (blocks["hot_repeat"] for blocks in runs)
    for entry in DECLARED["per_layer"]:
        if entry["unit"] in COUNTED_UNITS:
            assert first[entry["name"]] == second[entry["name"]], entry["name"]
    assert first["engine.columnar.block.cache_hit_ratio"][0] == 1.0
    assert first["engine.session.binding_miss_ratio"][0] == 0.0
