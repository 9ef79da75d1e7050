"""Operational monitoring: the query log, rolling history and cache accounting.

PR 6 gave the engine spans, metric families and EXPLAIN ANALYZE; this module
is what *consumes* them continuously.  A :class:`SessionMonitor` attached to
an :class:`~repro.engine.session.EngineSession` (``EngineSession(monitor=True)``)
receives every prepared-query execution and error and maintains:

* a :class:`QueryLog` — a bounded ring buffer of :class:`QueryLogEntry`
  records (fingerprint, query name, database id, elapsed,
  phase times, cardinalities, cache hits, error if any).  Runs slower than
  the configured :attr:`MonitorConfig.slow_query_seconds` are flagged, and
  the monitor *arms* slow-query tracing for that query: its next execution
  runs under a private recording tracer whose full span trace is retained on
  the log entry if the run is slow again — steady-state fast traffic never
  pays for span recording;
* a **rolling history** — windowed p50/p95/p99 latency, QPS and error counts
  per prepared query, computed on demand from the log (see
  :meth:`SessionMonitor.history`);
* a :class:`~repro.telemetry.qualitylog.PlanQualityTracker` — per-fingerprint
  q-error accounting of the estimated-vs-actual cardinalities every adaptive
  run already carries (the data feed for estimate-drift re-optimisation);
* **cache/resource metrics** — :meth:`SessionMonitor.collect` publishes
  counts (as ``*_total`` counters; no source resets one) and sizes (as
  gauges) on the session's :class:`~repro.telemetry.metrics.MetricsRegistry`,
  every engine cache through one labelled family set
  (``engine_cache_hits_total{cache}`` …), so one ``/metrics``
  scrape sees the full warm-path cache state.

The monitor serves nothing itself: its :meth:`~SessionMonitor.querylog_payload`,
:meth:`~SessionMonitor.health_payload` and :meth:`~SessionMonitor.quality_payload`
documents, and the registry it polls, are what the query service's HTTP
listener (:class:`repro.service.ServiceServer`) answers ``/querylog``,
``/health``, ``/quality`` and ``/metrics`` with.  This package never
imports the service.
"""

from __future__ import annotations

import gc
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from .qualitylog import PlanQualityTracker

__all__ = [
    "MonitorConfig",
    "QueryLogEntry",
    "QueryLog",
    "QueryHistory",
    "SessionMonitor",
    "rolling_history",
]


# --------------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MonitorConfig:
    """The monitor's knobs, all with serviceable defaults.

    * ``log_capacity`` — how many :class:`QueryLogEntry` records the ring
      buffer retains (older entries are dropped, counted in
      :attr:`QueryLog.dropped`);
    * ``slow_query_seconds`` — runs at or above this wall-time are flagged
      slow and arm span-trace capture for the query's next execution
      (``None`` disables slow-query handling entirely);
    * ``window_seconds`` — the default rolling-history window;
    * ``quality_drift_threshold`` / ``quality_drift_min_runs`` /
      ``quality_window`` — when a fingerprint's recent mean q-error exceeds
      the threshold over at least ``min_runs`` recent runs it is flagged as
      drifted (see :class:`~repro.telemetry.qualitylog.PlanQualityTracker`).
    """

    log_capacity: int = 256
    slow_query_seconds: Optional[float] = None
    window_seconds: float = 60.0
    quality_drift_threshold: float = 2.0
    quality_drift_min_runs: int = 3
    quality_window: int = 32


# --------------------------------------------------------------------------- #
# The query log
# --------------------------------------------------------------------------- #
class QueryLogEntry:
    """One prepared-query execution, as the monitor recorded it.

    Treat instances as immutable.  The entry stores the run's (immutable)
    statistics object and derives the cardinality/cache fields from it
    lazily — recording a run on the warm path then costs one small
    11-slot allocation instead of copying ~20 fields out of an object the
    reader may never look at.  Errored runs carry no statistics, and every
    derived field falls back to its empty default.
    """

    __slots__ = ("seq", "ts", "query", "fingerprint", "kind", "database",
                 "elapsed_seconds", "error", "slow", "trace", "_statistics")

    def __init__(self, query: str, fingerprint: str, kind: str,
                 database: str, elapsed_seconds: float = 0.0,
                 statistics: Optional[object] = None,
                 error: Optional[str] = None, slow: bool = False,
                 trace: Optional[Tuple[Mapping[str, object], ...]] = None,
                 seq: int = 0, ts: float = 0.0) -> None:
        self.seq = seq
        self.ts = ts
        self.query = query
        self.fingerprint = fingerprint
        self.kind = kind
        self.database = database
        self.elapsed_seconds = elapsed_seconds
        self.error = error
        self.slow = slow
        self.trace = trace
        self._statistics = statistics

    def __repr__(self) -> str:
        state = f"error={self.error!r}" if self.error else \
            f"rows={self.output_rows}"
        return (f"QueryLogEntry(seq={self.seq}, query={self.query!r}, "
                f"database={self.database!r}, "
                f"elapsed={self.elapsed_seconds * 1000:.3f}ms, {state})")

    @property
    def ok(self) -> bool:
        """``True`` when the run returned a result (no error)."""
        return self.error is None

    @property
    def statistics(self) -> Optional[object]:
        """The run's statistics object (``None`` for errored runs)."""
        return self._statistics

    @property
    def phase_times(self) -> Tuple[Tuple[str, float], ...]:
        return tuple(getattr(self._statistics, "phase_times", ()) or ())

    @property
    def input_rows(self) -> int:
        return sum(getattr(self._statistics, "input_sizes", ()) or ())

    @property
    def output_rows(self) -> int:
        return getattr(self._statistics, "output_size", 0) or 0

    @property
    def max_intermediate(self) -> int:
        return getattr(self._statistics, "max_intermediate", 0) or 0

    # A served execute ran no semijoin: its statistics are the stored run's.
    @property
    def semijoin_steps(self) -> int:
        if getattr(self._statistics, "served", False):
            return 0
        return getattr(self._statistics, "semijoin_steps", 0) or 0

    @property
    def rows_removed(self) -> int:
        if getattr(self._statistics, "served", False):
            return 0
        return getattr(self._statistics, "rows_removed_by_reduction", 0) or 0

    @property
    def plan_cache_hit(self) -> bool:
        return bool(getattr(self._statistics, "plan_cache_hit", False))

    @property
    def index_cache_hits(self) -> int:
        return getattr(self._statistics, "index_cache_hits", 0) or 0

    @property
    def index_cache_misses(self) -> int:
        return getattr(self._statistics, "index_cache_misses", 0) or 0

    @property
    def adaptive(self) -> bool:
        return bool(getattr(self._statistics, "adaptive", False))

    @property
    def estimated_output_rows(self) -> Optional[int]:
        return getattr(self._statistics, "estimated_output_size", None)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dict (the ``/querylog`` payload's entry shape)."""
        return {
            "seq": self.seq,
            "ts": self.ts,
            "query": self.query,
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "database": self.database,
            "elapsed_seconds": self.elapsed_seconds,
            "phase_times": [[phase, seconds]
                            for phase, seconds in self.phase_times],
            "input_rows": self.input_rows,
            "output_rows": self.output_rows,
            "max_intermediate": self.max_intermediate,
            "semijoin_steps": self.semijoin_steps,
            "rows_removed": self.rows_removed,
            "plan_cache_hit": self.plan_cache_hit,
            "index_cache_hits": self.index_cache_hits,
            "index_cache_misses": self.index_cache_misses,
            "adaptive": self.adaptive,
            "estimated_output_rows": self.estimated_output_rows,
            "error": self.error,
            "slow": self.slow,
            "traced": self.trace is not None,
        }


class QueryLog:
    """A thread-safe bounded ring buffer of :class:`QueryLogEntry` records.

    The deque's ``maxlen`` enforces the capacity — a full log drops its
    oldest entry on every append (the drop is counted, never silent), so the
    buffer can absorb unbounded traffic at O(capacity) memory.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("the query log needs capacity >= 1")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: Deque[QueryLogEntry] = deque(maxlen=capacity)
        self._seq = 0
        self._dropped = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def dropped(self) -> int:
        """How many entries the ring has evicted since creation."""
        with self._lock:
            return self._dropped

    @property
    def total_recorded(self) -> int:
        """How many entries were ever appended (monotonic sequence counter)."""
        with self._lock:
            return self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def append(self, **fields: object) -> QueryLogEntry:
        """Record one run; the log assigns ``seq`` and ``ts`` itself."""
        return self.push(QueryLogEntry(**fields))  # type: ignore[arg-type]

    def push(self, entry: QueryLogEntry) -> QueryLogEntry:
        """Record an already-built entry (the warm path — construction stays
        outside the lock; the log still assigns ``seq`` and ``ts``)."""
        with self._lock:
            self._seq += 1
            entry.seq = self._seq
            entry.ts = time.time()
            if len(self._entries) == self._capacity:
                self._dropped += 1
            self._entries.append(entry)
        return entry

    def entries(self, *, limit: Optional[int] = None,
                query: Optional[str] = None) -> Tuple[QueryLogEntry, ...]:
        """A snapshot, oldest first; ``limit`` keeps the newest N."""
        with self._lock:
            snapshot: List[QueryLogEntry] = list(self._entries)
        if query is not None:
            snapshot = [entry for entry in snapshot if entry.query == query]
        if limit is not None:
            snapshot = snapshot[-limit:]
        return tuple(snapshot)

    def slow_entries(self) -> Tuple[QueryLogEntry, ...]:
        """Every retained entry flagged slow, oldest first."""
        return tuple(entry for entry in self.entries() if entry.slow)

    def errors(self) -> Tuple[QueryLogEntry, ...]:
        """Every retained entry that recorded an error, oldest first."""
        return tuple(entry for entry in self.entries() if entry.error is not None)

    def clear(self) -> None:
        """Drop retained entries (the sequence and drop counters survive)."""
        with self._lock:
            self._entries.clear()


# --------------------------------------------------------------------------- #
# Rolling history
# --------------------------------------------------------------------------- #
def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) of a pre-sorted sequence, interpolated."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = (len(sorted_values) - 1) * (q / 100.0)
    lower = int(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    fraction = position - lower
    return sorted_values[lower] * (1.0 - fraction) + sorted_values[upper] * fraction


@dataclass(frozen=True)
class QueryHistory:
    """One prepared query's rolling-window latency/throughput summary."""

    query: str
    window_seconds: float
    runs: int
    errors: int
    qps: float
    p50_seconds: float
    p95_seconds: float
    p99_seconds: float
    max_seconds: float
    mean_seconds: float
    slow_runs: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "query": self.query,
            "window_seconds": self.window_seconds,
            "runs": self.runs,
            "errors": self.errors,
            "qps": self.qps,
            "p50_seconds": self.p50_seconds,
            "p95_seconds": self.p95_seconds,
            "p99_seconds": self.p99_seconds,
            "max_seconds": self.max_seconds,
            "mean_seconds": self.mean_seconds,
            "slow_runs": self.slow_runs,
        }


def rolling_history(entries: Sequence[QueryLogEntry], *,
                    window_seconds: float = 60.0,
                    now: Optional[float] = None
                    ) -> Tuple[QueryHistory, ...]:
    """Windowed per-query percentiles/QPS over a query-log snapshot.

    Only entries whose ``ts`` falls inside ``[now - window, now]`` count.
    Errored runs contribute to ``runs``/``errors`` and QPS but not to the
    latency percentiles (their elapsed time measures the failure path, not
    the query).  Queries are returned name-sorted.
    """
    mark = time.time() if now is None else now
    cutoff = mark - window_seconds
    buckets: Dict[str, List[QueryLogEntry]] = {}
    for entry in entries:
        if entry.ts >= cutoff:
            buckets.setdefault(entry.query, []).append(entry)
    histories: List[QueryHistory] = []
    for query in sorted(buckets):
        bucket = buckets[query]
        latencies = sorted(entry.elapsed_seconds for entry in bucket
                           if entry.error is None)
        errors = sum(1 for entry in bucket if entry.error is not None)
        histories.append(QueryHistory(
            query=query, window_seconds=window_seconds, runs=len(bucket),
            errors=errors, qps=len(bucket) / window_seconds,
            p50_seconds=_percentile(latencies, 50.0),
            p95_seconds=_percentile(latencies, 95.0),
            p99_seconds=_percentile(latencies, 99.0),
            max_seconds=latencies[-1] if latencies else 0.0,
            mean_seconds=(sum(latencies) / len(latencies)) if latencies else 0.0,
            slow_runs=sum(1 for entry in bucket if entry.slow)))
    return tuple(histories)


# --------------------------------------------------------------------------- #
# What collect() publishes
# --------------------------------------------------------------------------- #
def _info(key: str):
    """A :data:`_POLLED` reader: the one series ``column_cache_info()[key]``."""
    return lambda monitor, info: [({}, info[key])]


def _gc(key: str):
    """A :data:`_POLLED` reader: ``gc.get_stats()[generation][key]`` per generation."""
    return lambda monitor, info: [({"generation": generation}, stats[key])
                                  for generation, stats in enumerate(gc.get_stats())]


def _per_database(measure):
    """A :data:`_POLLED` reader: ``measure(relations)`` per live monitored database."""
    return lambda monitor, info: [({"database": label}, measure(database.relations()))
                                  for database, label in monitor._databases()]


#: Every family :meth:`SessionMonitor.collect` polls outside the cache
#: report, as ``(name, kind, reader, help)``: a reader maps the monitor and
#: one ``column_cache_info()`` snapshot to ``(labels, value)`` series.
#: Cumulative counts are counters named ``*_total``; sizes are gauges.
_POLLED = (
    ("engine_selection_keys_built_total", "counter", _info("selection_keys"),
     "Selection keys materialised; a warm re-execution adds none."),
    ("engine_fold_programs_compiled_total", "counter", _info("fold_programs"),
     "Bound reduce-and-fold programs compiled, one per plan and output set."),
    ("engine_interner_values", "gauge", _info("interned_values"),
     "Values held by the current interner generation."),
    ("engine_interner_locked_cells_total", "counter",
     _info("interner_locked_cells"), "Column cells interned under the lock."),
    ("engine_key_overflow_rows_total", "counter", _info("key_overflow_rows"),
     "Multi-attribute key rows whose ids outgrew the packing radix."),
    ("process_gc_collections_total", "counter", _gc("collections"),
     "Runs of the cyclic garbage collector, per generation."),
    ("process_gc_collected_total", "counter", _gc("collected"),
     "Objects the cyclic garbage collector has freed, per generation."),
    ("engine_querylog_entries", "gauge",
     lambda monitor, info: [({}, len(monitor.log))], "Entries in the query log."),
    ("engine_querylog_dropped_total", "counter",
     lambda monitor, info: [({}, monitor.log.dropped)],
     "Entries the query log ring buffer has evicted."),
    ("engine_database_relations", "gauge", _per_database(len),
     "Relations in a monitored database."),
    ("engine_database_rows", "gauge",
     _per_database(lambda relations: sum(map(len, relations))),
     "Stored rows in a monitored database."),
)

#: The labelled cache report: ``(report field, name, kind, help)``.  Each
#: cache publishes one ``{cache=…}`` series per field its report carries.
_CACHE_FAMILIES = (
    ("hits", "engine_cache_hits_total", "counter",
     "Lookups a cache answered from a resident entry."),
    ("misses", "engine_cache_misses_total", "counter",
     "Lookups a cache answered by building the value."),
    ("evictions", "engine_cache_evictions_total", "counter",
     "Entries a cache dropped to stay within its bound."),
    ("size", "engine_cache_entries", "gauge", "Entries resident in a cache."),
    ("capacity", "engine_cache_capacity", "gauge", "A cache's entry bound."),
)


# --------------------------------------------------------------------------- #
# The session monitor
# --------------------------------------------------------------------------- #
class SessionMonitor:
    """The operational state of one :class:`~repro.engine.session.EngineSession`.

    Created by ``EngineSession(monitor=...)`` (which accepts ``True``, a
    :class:`MonitorConfig` or a ready monitor) and reachable as
    ``session.monitor``.  The monitor is passive until
    :meth:`~repro.engine.session.EngineSession` binds it — ``bind`` hands it
    the session's planner and metrics registry; every
    ``PreparedQuery._traced_run`` then feeds :meth:`observe` /
    :meth:`observe_error`.
    """

    def __init__(self, config: Optional[MonitorConfig] = None) -> None:
        self.config = config if config is not None else MonitorConfig()
        self.log = QueryLog(self.config.log_capacity)
        self.quality = PlanQualityTracker(
            drift_threshold=self.config.quality_drift_threshold,
            drift_min_runs=self.config.quality_drift_min_runs,
            window=self.config.quality_window)
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._armed: set = set()          # query names armed for slow tracing
        self._registry = None             # bound by the session
        self._session_ref = None
        # Databases seen by observe(), weakly held, labelled db0, db1, …
        self._database_labels: "weakref.WeakKeyDictionary[object, str]" = \
            weakref.WeakKeyDictionary()
        self._database_counter = 0
        self._slow_counter = None

    # ------------------------------------------------------------------ #
    # Session binding
    # ------------------------------------------------------------------ #
    def bind(self, session: object) -> "SessionMonitor":
        """Attach to a session (its registry and caches); idempotent.

        A monitor belongs to exactly one session — binding a second raises,
        so two sessions can never interleave entries in one log.
        """
        with self._lock:
            if self._session_ref is not None:
                bound = self._session_ref()
                if bound is not None and bound is not session:
                    raise ValueError("this SessionMonitor is already bound to "
                                     "a different EngineSession")
            self._session_ref = weakref.ref(session)
            self._registry = session.metrics
            self._slow_counter = self._registry.counter(
                "engine_slow_queries_total",
                "Runs at or above the slow-query threshold.")
        return self

    @property
    def registry(self):
        """The bound session's metrics registry (``None`` before binding)."""
        return self._registry

    @property
    def uptime_seconds(self) -> float:
        return time.time() - self.started_at

    # ------------------------------------------------------------------ #
    # Observation (called from PreparedQuery._traced_run)
    # ------------------------------------------------------------------ #
    def database_label(self, database: Optional[object]) -> str:
        """A stable ``db<N>`` label for a database instance ("-" when none)."""
        if database is None:
            return "-"
        with self._lock:
            label = self._database_labels.get(database)
            if label is None:
                label = f"db{self._database_counter}"
                self._database_counter += 1
                self._database_labels[database] = label
        return label

    def wants_trace(self, query: str) -> bool:
        """``True`` when the query's next run should capture a span trace."""
        if self.config.slow_query_seconds is None:
            return False
        with self._lock:
            return query in self._armed

    def observe(self, *, query: str, fingerprint: str, kind: str,
                statistics: object, elapsed_seconds: float,
                database: Optional[object] = None,
                trace_records: Optional[Sequence[Mapping[str, object]]] = None
                ) -> QueryLogEntry:
        """Fold one successful run into the log, the quality tracker and metrics."""
        threshold = self.config.slow_query_seconds
        slow = threshold is not None and elapsed_seconds >= threshold
        trace: Optional[Tuple[Mapping[str, object], ...]] = None
        if slow and trace_records:
            trace = tuple(trace_records)
        if threshold is not None:
            with self._lock:
                if slow and trace is None:
                    # Slow but untraced: arm capture for the next run.
                    self._armed.add(query)
                else:
                    self._armed.discard(query)
        # Positional construction, outside any lock — the warm path's one
        # allocation.  The statistics object rides along and the wide
        # fields derive from it lazily (see QueryLogEntry).
        entry = self.log.push(QueryLogEntry(
            query, fingerprint, kind, self.database_label(database),
            elapsed_seconds, statistics, None, slow, trace))
        self.quality.fold_run(fingerprint=fingerprint, query=query,
                              statistics=statistics)
        if slow and self._slow_counter is not None:
            self._slow_counter.inc()
        return entry

    def observe_error(self, *, query: str, fingerprint: str, kind: str,
                      elapsed_seconds: float, error: BaseException,
                      database: Optional[object] = None) -> QueryLogEntry:
        """Record one failed run (kept in the same ring, flagged by ``error``).

        The session counts it (``engine_query_errors_total{kind}``); the
        monitor only logs it.
        """
        return self.log.append(
            query=query, fingerprint=fingerprint, kind=kind,
            database=self.database_label(database),
            elapsed_seconds=elapsed_seconds,
            error=f"{type(error).__name__}: {error}")

    # ------------------------------------------------------------------ #
    # Rolling history
    # ------------------------------------------------------------------ #
    def history(self, *, window_seconds: Optional[float] = None
                ) -> Tuple[QueryHistory, ...]:
        """Windowed p50/p95/p99 latency and QPS per prepared query."""
        window = window_seconds if window_seconds is not None \
            else self.config.window_seconds
        return rolling_history(self.log.entries(), window_seconds=window)

    # ------------------------------------------------------------------ #
    # Cache / resource collection
    # ------------------------------------------------------------------ #
    def collect(self) -> Dict[str, float]:
        """Publish every polled value on the session registry; return them.

        One loop over :data:`_POLLED`, then one over the caches' ``(cache,
        report)`` pairs — the session's and the columnar layer's.  Values
        are read at scrape time; nothing is hooked into the execute path.
        Each family is rebuilt whole, so a collected database's series drop
        out with it.  Returned values are keyed ``name{k=v,…}``.
        """
        from ..engine.columnar.block import column_cache_info, column_cache_reports

        values: Dict[str, float] = {}
        registry = self._registry
        if registry is None:
            return values

        def publish(name, kind, help, series) -> None:
            registry.publish(name, kind, help, series)
            for labels, value in series:
                suffix = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                values[f"{name}{{{suffix}}}" if suffix else name] = float(value)

        info = column_cache_info()
        for name, kind, read, help in _POLLED:
            publish(name, kind, help, read(self, info))
        session = self._session_ref()
        reports = (session.cache_reports() if session is not None else ()) \
            + column_cache_reports()
        for field, name, kind, help in _CACHE_FAMILIES:
            publish(name, kind, help, [({"cache": cache}, report[field])
                                       for cache, report in reports
                                       if field in report])
        return values

    def _databases(self) -> List[Tuple[object, str]]:
        """The live databases the monitor has seen, with their labels."""
        with self._lock:
            return list(self._database_labels.items())

    # ------------------------------------------------------------------ #
    # JSON payloads (served by the query service's GET routes)
    # ------------------------------------------------------------------ #
    def querylog_payload(self, *, limit: Optional[int] = None
                         ) -> Dict[str, object]:
        """The ``/querylog`` JSON document (validated by ``querylog_schema.json``)."""
        return {
            "capacity": self.log.capacity,
            "recorded": self.log.total_recorded,
            "dropped": self.log.dropped,
            "slow_query_seconds": self.config.slow_query_seconds,
            "entries": [entry.to_dict()
                        for entry in self.log.entries(limit=limit)],
            "history": [history.to_dict() for history in self.history()],
        }

    def quality_payload(self) -> Dict[str, object]:
        """The ``/quality`` JSON document (per-fingerprint q-error accounting)."""
        return self.quality.to_dict()

    def health_payload(self) -> Dict[str, object]:
        """The ``/health`` JSON document."""
        errors = len(self.log.errors())
        return {
            "status": "ok",
            "uptime_seconds": self.uptime_seconds,
            "queries_recorded": self.log.total_recorded,
            "errors_retained": errors,
            "slow_retained": len(self.log.slow_entries()),
            "drifted_fingerprints": len(self.quality.drifted_fingerprints()),
        }

    def describe(self) -> str:
        """A one-line monitor summary."""
        return (f"SessionMonitor(entries={len(self.log)}/{self.log.capacity} "
                f"recorded={self.log.total_recorded} "
                f"dropped={self.log.dropped} "
                f"slow={len(self.log.slow_entries())} "
                f"errors={len(self.log.errors())} "
                f"drifted={len(self.quality.drifted_fingerprints())})")
