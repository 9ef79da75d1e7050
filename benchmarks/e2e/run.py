"""The repository benchmark: four single-client workloads, one command.

    python benchmarks/e2e/run.py --workload fresh_data --seed 1
    python benchmarks/e2e/run.py --workload fresh_data --seed 1 --trace
    python benchmarks/e2e/run.py --selfcheck

Each workload runs in its own child process (``worker.py``) with
``PYTHONHASHSEED=0`` and the engine's environment switches scrubbed.  Every
metric is printed by name with its unit, answers are checked on every
operation, and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` for the (last) workload.
Exits non-zero when an operation failed.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SOURCE = ROOT / "src"


def scrubbed_environment() -> Dict[str, str]:
    """The environment every benchmark process runs under.

    The hash seed is fixed because per-process hash randomisation alone moved
    the fresh-data median by 9 % between runs of identical code; the engine's
    sharding and backend switches are removed so a caller's shell cannot
    change what is measured.
    """
    environment = dict(os.environ)
    for name in ("REPRO_SHARDS", "REPRO_SHARD_EXECUTOR", "REPRO_COLUMN_BACKEND"):
        environment.pop(name, None)
    environment["PYTHONHASHSEED"] = "0"
    inherited = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = f"{SOURCE}{os.pathsep}{inherited}" if inherited else str(SOURCE)
    return environment


def run_workload(workload: str, arguments) -> Dict[str, Any]:
    """Run one workload in a child process; return its result document."""
    out = Path(arguments.out) if arguments.out else HERE / ".work" / "out"
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(arguments.seed), "--seconds", str(arguments.seconds),
               "--trace", str(arguments.trace), "--scale", arguments.scale,
               "--out", str(out / workload)]
    completed = subprocess.run(command, env=scrubbed_environment(),
                               stdout=subprocess.PIPE, text=True)
    if completed.returncode != 0:
        raise SystemExit(f"workload {workload} did not finish "
                         f"(worker exit code {completed.returncode})")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def report(document: Dict[str, Any]) -> None:
    print(f"workload {document['workload']}: attempted {document['attempted']} "
          f"failed {document['failed']}")
    for name, entry in document["metrics"].items():
        print(f"  {name:<46} {entry['value']:>14.4f} {entry['unit']}")


def contract_line(document: Dict[str, Any]) -> str:
    return json.dumps({key: document[key]
                       for key in ("correct", "attempted", "failed", "metrics")})


def selfcheck(workloads: List[str], arguments) -> int:
    """Run the suite twice back to back on the same code and compare (A/A)."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {entry["name"]: entry["bound"] for entry in declared["end_to_end"]}
    first = {name: run_workload(name, arguments) for name in workloads}
    second = {name: run_workload(name, arguments) for name in workloads}
    worst = 0.0
    print(f"{'workload':<16}{'metric':<18}{'first':>12}{'second':>12}{'diff':>9}{'bound':>8}")
    for name in workloads:
        for metric, bound in bounds.items():
            a = first[name]["metrics"][metric]["value"]
            b = second[name]["metrics"][metric]["value"]
            difference = abs(a - b) / min(abs(a), abs(b))
            worst = max(worst, difference / bound)
            flag = "  OVER" if difference > bound else \
                "  above half" if difference > bound / 2 else ""
            print(f"{name:<16}{metric:<18}{a:>12.4f}{b:>12.4f}"
                  f"{difference:>9.2%}{bound:>8.0%}{flag}")
    failed = sum(document["failed"] for document in (*first.values(), *second.values()))
    print(f"selfcheck: worst difference is {worst:.0%} of its bound; "
          f"{failed} failed operations")
    return 0 if worst <= 1.0 and failed == 0 else 1


def main() -> int:
    from metrics import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length the fixed operation counts are scaled to "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced run, printing the per-layer metrics")
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    parser.add_argument("--out", default=None,
                        help="directory for result.json and spans.jsonl "
                             "(default: benchmarks/e2e/.work/out)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the suite twice and compare against the bounds")
    arguments = parser.parse_args()
    if not (SOURCE / "repro").is_dir():
        print(f"error: the program under test is not at {SOURCE / 'repro'}",
              file=sys.stderr)
        return 2
    if arguments.seconds is None:
        arguments.seconds = json.loads(
            (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    workloads = list(WORKLOADS) if arguments.workload == "all" else [arguments.workload]
    if arguments.selfcheck:
        return selfcheck(workloads, arguments)
    failed = 0
    for workload in workloads:
        document = run_workload(workload, arguments)
        report(document)
        failed += document["failed"]
    print(contract_line(document))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
