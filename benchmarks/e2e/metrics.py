"""Metric declarations and the round statistics every number goes through.

The names and units here are the benchmark's vocabulary; ``BENCHMARK.json``
at the repository root declares the same names (the smoke test keeps the two
lists equal), and later issues refer to metrics by these names.
"""

from __future__ import annotations

import os
import resource
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional, Sequence

WORKLOADS = ("hot_repeat", "fresh_data", "cold_adhoc", "service_serial")

#: End-to-end metrics: name -> unit.  Reported by the untraced run.
END_TO_END: Dict[str, str] = {
    "acyclic_ms_p50": "ms",
    "acyclic_ms_p75": "ms",
    "cyclic_ms_p50": "ms",
    "cyclic_ms_p75": "ms",
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics: name -> unit.  Reported by the ``--trace 1`` run.
#: ``ms`` values are self time per operation, counts are per operation.
PER_LAYER: Dict[str, str] = {
    "engine.session.execute_self_ms": "ms",
    "engine.session.prepare_ms": "ms",
    "engine.session.binding_miss_ratio": "ratio",
    "engine.session.unattributed_pct": "%",
    "engine.planner.plan_for_ms": "ms",
    "engine.planner.annotate_ms": "ms",
    "engine.planner.cache_hit_ratio": "ratio",
    "engine.catalog.measure_ms": "ms",
    "engine.catalog.rows_scanned": "rows",
    "engine.cyclic.covers.search_ms": "ms",
    "engine.cyclic.covers.candidates": "count",
    "engine.cyclic.quotient.materialise_ms": "ms",
    "engine.cyclic.quotient.cluster_rows": "rows",
    "engine.columnar.block.encode_ms": "ms",
    "engine.columnar.block.cache_hit_ratio": "ratio",
    "engine.columnar.block.keyset_hit_ratio": "ratio",
    "engine.columnar.buffers.interned_values": "count",
    "engine.reducer.reduce_ms": "ms",
    "engine.reducer.semijoin_steps": "count",
    "engine.reducer.rows_removed": "rows",
    "engine.columnar.kernels.semijoin_ms": "ms",
    "engine.columnar.kernels.natural_join_ms": "ms",
    "engine.yannakakis.fold_ms": "ms",
    "engine.yannakakis.decode_ms": "ms",
    "engine.yannakakis.decode_rows": "rows",
    "engine.yannakakis.rows_examined_per_result": "ratio",
    "service.client.transport_ms": "ms",
    "service.protocol.parse_ms": "ms",
    "service.admission.admit_ms": "ms",
    "service.admission.rejected": "count",
    "service.pool.hop_ms": "ms",
    "service.server.handle_self_ms": "ms",
    "service.server.rows_payload_ms": "ms",
    "service.server.wire_encode_ms": "ms",
    "service.server.response_bytes": "bytes",
    "telemetry.monitor.observe_ms": "ms",
    "harness.trace_overhead_pct": "%",
}

#: What a probe reports when the entry point of its layer no longer exists.
#: The benchmark contract wants a number for every declared metric, so a
#: missing layer is this sentinel plus a one-line notice, never a crash.
MISSING = -1.0

CLASSES = ("acyclic", "cyclic")


# --------------------------------------------------------------------------- #
# The speed reference
# --------------------------------------------------------------------------- #
#: What :func:`speed_kernel` takes on this container when nothing else runs.
REFERENCE_KERNEL_S = 0.00076


def speed_kernel() -> int:
    """A fixed piece of interpreter-bound work: lists, a dict of lists, a sort, a set.

    This box's speed drifts with its neighbours: for minutes at a time every
    timing of a run, wall and CPU alike, is 10 to 50 % higher (the hot
    acyclic median read 2.3 to 3.9 ms over twenty minutes of identical code).
    The drift is multiplicative and this kernel, run between the operations
    of a round, moves with it: the ratio of the two stayed within 4 %.  A
    round's timings are therefore reported at reference speed, i.e. divided
    by (its median kernel time / ``REFERENCE_KERNEL_S``).
    """
    data = [(index * 7919) % 10007 for index in range(3000)]
    table: Dict[int, List[int]] = {}
    for index, value in enumerate(data):
        table.setdefault(value & 255, []).append(index)
    return len(frozenset(data)) + len(table) + sorted(data)[0]


def timed_kernel() -> float:
    started = perf_counter()
    speed_kernel()
    return perf_counter() - started


def slowdown(kernel_samples_s: Sequence[float]) -> float:
    """How much slower than the reference the machine ran (1.0 = reference speed)."""
    return median(kernel_samples_s) / REFERENCE_KERNEL_S


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile of ``values`` by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Round:
    """The samples of one round: per-class latencies plus wall, CPU, RSS and speed."""

    def __init__(self) -> None:
        self.latency_s: Dict[str, List[float]] = {name: [] for name in CLASSES}
        self.kernel_s: List[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0

    def record(self, klass: str, wall_s: float, cpu_s: float) -> None:
        self.latency_s[klass].append(wall_s)
        self.wall_s += wall_s
        self.cpu_s += cpu_s

    def metrics(self) -> Dict[str, Optional[float]]:
        """This round's value of every per-round end-to-end metric, at reference speed."""
        correct = self.attempted - self.failed
        slower = slowdown(self.kernel_s)
        values: Dict[str, Optional[float]] = {}
        for klass in CLASSES:
            samples = self.latency_s[klass]
            for name, q in (("p50", 0.5), ("p75", 0.75)):
                values[f"{klass}_ms_{name}"] = \
                    quantile(samples, q) * 1e3 / slower if samples else None
        values["ops_per_s"] = correct / self.wall_s * slower if self.wall_s > 0 else None
        values["cpu_ms_per_op"] = self.cpu_s * 1e3 / correct / slower if correct else None
        values["peak_rss_mb"] = self.peak_rss_mb
        return values


def median_of_rounds(rounds: Sequence[Round]) -> Dict[str, float]:
    """Every per-round metric, reported as the median of the round values.

    A round in which a class produced no sample (every operation failed)
    contributes nothing; a metric no round could compute is ``MISSING``.
    """
    per_round = [round_.metrics() for round_ in rounds]
    result: Dict[str, float] = {}
    for name in END_TO_END:
        if name == "setup_s":
            continue
        values = [entry[name] for entry in per_round if entry[name] is not None]
        result[name] = median(values) if values else MISSING
    return result


def reset_own_peak_rss() -> None:
    """Restart this process's resident-set high-water mark (Linux; else a no-op).

    Called once the inputs and reference answers exist, so that what the
    harness needed to prepare them is not reported as the program's peak.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def child_cpu_s(pid: int) -> float:
    """utime + stime of another process from ``/proc/<pid>/stat`` (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    # After the "(comm)" field: state is fields[0], utime/stime are 14/15 overall.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: object = "self") -> float:
    """``VmHWM`` of a process from ``/proc/<pid>/status``.

    Without ``/proc`` this process's ``ru_maxrss`` (KiB on Linux) stands in,
    and another process reads as 0.
    """
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    if pid == "self":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0
