"""E-KERNELS — batched column-buffer primitives vs scalar per-row probing.

The typed-storage layer (PR 8) moved every hot inner loop of the columnar
kernels behind the :class:`~repro.engine.columnar.buffers.ColumnBuffer`
interface: membership filtering, hash-join build/probe, duplicate
elimination and positional gathers all consume *whole* ``array('q')`` id
vectors instead of probing one row at a time.  This module races each
primitive against the straight-line scalar loop it replaced, on the same
skewed id distribution the engine benchmarks use, for every backend the
process has (the pure-Python ``array`` backend always; ``numpy`` when
installed).

All backends must return *identical* vectors — same positions, same order —
so the race doubles as a differential test of the primitives themselves.
The headline throughput numbers go to ``BENCH_kernels.json`` for the CI
smoke step; the hard gate is only that the always-available ``array``
backend beats the scalar loop on the probe-heavy kernels.
"""

from __future__ import annotations

import json
import os
import random
import time
from array import array
from pathlib import Path

import pytest

from repro.analysis import banner
from repro.engine.columnar import (
    available_column_backends,
    default_column_backend,
)
from repro.engine.columnar.buffers import resolve_column_backend

N_BUILD = 4_000
N_PROBE = 20_000
DOMAIN = 512
KEY_SET_SIZE = 256
REPEATS = 5
SEED = 8

#: Where the CI smoke step picks up the headline numbers.
RESULT_PATH = Path("BENCH_kernels.json")


@pytest.fixture(scope="module")
def workload():
    """Skewed id columns: quadratic skew mimics the fanout/junction chains."""
    rng = random.Random(SEED)
    skewed = lambda: int(DOMAIN * rng.random() ** 2)
    build_codes = array("q", (skewed() for _ in range(N_BUILD)))
    probe_codes = array("q", (skewed() for _ in range(N_PROBE)))
    second_codes = array("q", (skewed() for _ in range(N_PROBE)))
    key_set = frozenset(rng.sample(range(DOMAIN), KEY_SET_SIZE))
    return {
        "build_codes": build_codes,
        "build_positions": range(N_BUILD),
        "probe_codes": probe_codes,
        "second_codes": second_codes,
        "probe_positions": range(N_PROBE),
        "key_set": key_set,
        "key_codes": array("q", key_set),
        "key_positions": range(KEY_SET_SIZE),
    }


def _best_of(fn, repeats=REPEATS):
    """(best wall seconds, last result) over ``repeats`` runs."""
    best, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


# --------------------------------------------------------------------------- #
# scalar reference loops — one row at a time, exactly what the kernels replaced
# --------------------------------------------------------------------------- #
def _scalar_membership(codes, positions, key_set):
    keep = array("q")
    append = keep.append
    for p in positions:
        if codes[p] in key_set:
            append(p)
    return keep


def _scalar_join_probe(build_codes, build_positions, probe_codes,
                       probe_positions):
    table = {}
    for p in build_positions:
        table.setdefault(build_codes[p], []).append(p)
    left, right = array("q"), array("q")
    for p in probe_positions:
        for match in table.get(probe_codes[p], ()):
            left.append(match)
            right.append(p)
    return left, right


def _scalar_distinct(columns, positions):
    keep, seen = array("q"), set()
    for p in positions:
        key = tuple(column[p] for column in columns)
        if key not in seen:
            seen.add(key)
            keep.append(p)
    return keep


def _scalar_gather(codes, positions):
    out = array("q")
    append = out.append
    for p in positions:
        append(codes[p])
    return out


# --------------------------------------------------------------------------- #
# the race
# --------------------------------------------------------------------------- #
def _kernel_races(w):
    """kernel name -> (scalar thunk, backend -> batched thunk)."""
    def batched(fn):
        return {name: (lambda b=resolve_column_backend(name): fn(b))
                for name in available_column_backends()}

    return {
        "membership_filter": (
            lambda: _scalar_membership(w["probe_codes"], w["probe_positions"],
                                       w["key_set"]),
            batched(lambda b: b.filter_membership(
                w["probe_codes"], w["probe_positions"],
                b.key_set(w["key_codes"], w["key_positions"]))),
        ),
        "join_probe": (
            lambda: _scalar_join_probe(w["build_codes"], w["build_positions"],
                                       w["probe_codes"], w["probe_positions"]),
            batched(lambda b: b.probe_table(
                b.build_table(w["build_codes"], w["build_positions"]),
                w["probe_codes"], w["probe_positions"])),
        ),
        "distinct_first_occurrence": (
            lambda: _scalar_distinct([w["probe_codes"], w["second_codes"]],
                                     w["probe_positions"]),
            batched(lambda b: b.first_occurrence(
                [w["probe_codes"], w["second_codes"]], w["probe_positions"])),
        ),
        "positional_gather": (
            lambda: _scalar_gather(w["probe_codes"],
                                   _scalar_membership(w["probe_codes"],
                                                      w["probe_positions"],
                                                      w["key_set"])),
            batched(lambda b: b.take(
                w["probe_codes"],
                b.filter_membership(w["probe_codes"], w["probe_positions"],
                                    b.key_set(w["key_codes"], w["key_positions"])))),
        ),
    }


def _as_arrays(result):
    """Normalise a kernel result to a tuple of ``array('q')`` for comparison."""
    if isinstance(result, tuple):
        return tuple(array("q", part) for part in result)
    return (array("q", result),)


def test_batched_kernels_beat_scalar_probing(workload):
    """The smoke gate: identical vectors everywhere; array backend ≥ scalar
    on the probe-heavy kernels; headline throughput to BENCH_kernels.json."""
    print(banner("E-KERNELS: batched column buffers vs scalar loops"))
    report = {"rows": {"build": N_BUILD, "probe": N_PROBE, "domain": DOMAIN},
              "cpu_count": os.cpu_count() or 1,
              "backend": default_column_backend(),
              "backends": sorted(available_column_backends()),
              "kernels": []}
    for kernel, (scalar, backends) in _kernel_races(workload).items():
        scalar_seconds, scalar_result = _best_of(scalar)
        entry = {"kernel": kernel,
                 "scalar_seconds": round(scalar_seconds, 6),
                 "backends": {}}
        for backend_name, thunk in backends.items():
            seconds, result = _best_of(thunk)
            # Differential gate: every backend reproduces the scalar loop's
            # positions in the scalar loop's order, bit for bit.
            assert _as_arrays(result) == _as_arrays(scalar_result), \
                f"{kernel}[{backend_name}] diverged from the scalar loop"
            speedup = scalar_seconds / max(seconds, 1e-9)
            entry["backends"][backend_name] = {
                "seconds": round(seconds, 6),
                "speedup": round(speedup, 2),
                "mrows_per_s": round(N_PROBE / max(seconds, 1e-9) / 1e6, 2),
            }
            print(f"{kernel:>26}  {backend_name:>5}: "
                  f"{seconds * 1000:7.2f} ms vs scalar "
                  f"{scalar_seconds * 1000:7.2f} ms -> {speedup:5.1f}x")
        report["kernels"].append(entry)

    array_speedups = {entry["kernel"]: entry["backends"]["array"]["speedup"]
                      for entry in report["kernels"]}
    report["min_array_speedup"] = min(array_speedups.values())
    # The probe-heavy kernels are the refactor's whole point: the C-level
    # zip/extend pipelines must beat interpreter-loop probing even without
    # numpy.  (membership and gather are dominated by the same per-element
    # set/index cost either way, so they are reported but not gated.)
    for kernel in ("join_probe", "distinct_first_occurrence"):
        assert array_speedups[kernel] > 1.0, \
            f"array backend lost to the scalar loop on {kernel}"

    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")


@pytest.mark.slow
@pytest.mark.benchmark(group="E-KERNELS membership")
@pytest.mark.parametrize("backend_name", sorted(available_column_backends()))
def test_membership_timing(benchmark, workload, backend_name):
    backend = resolve_column_backend(backend_name)
    prepared = backend.key_set(workload["key_codes"],
                               workload["key_positions"])
    benchmark(lambda: backend.filter_membership(
        workload["probe_codes"], workload["probe_positions"], prepared))


@pytest.mark.slow
@pytest.mark.benchmark(group="E-KERNELS join probe")
@pytest.mark.parametrize("backend_name", sorted(available_column_backends()))
def test_join_probe_timing(benchmark, workload, backend_name):
    backend = resolve_column_backend(backend_name)
    table = backend.build_table(workload["build_codes"],
                                workload["build_positions"])
    benchmark(lambda: backend.probe_table(
        table, workload["probe_codes"], workload["probe_positions"]))
