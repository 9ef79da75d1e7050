"""``repro.telemetry`` — zero-dependency observability for the engine.

Three pillars, all stdlib-only and import-cycle-free (this package never
imports the engine; the engine's layers import *it*):

* :mod:`~repro.telemetry.tracing` — nested context-manager **spans**
  (``prepare``, ``annotate``, ``cover_search``, ``reduce``, ``fold``,
  ``kernel:semijoin`` / ``kernel:join``, ``encode``, ``materialise``,
  ``decode``, ``execute``) carrying wall-time and
  cardinality attributes, a contextvar-ambient :func:`current_tracer`, a
  no-allocation null tracer for the disabled hot path, and pluggable sinks
  (:class:`JsonlTraceSink` streams JSONL);
* :mod:`~repro.telemetry.metrics` — counter/gauge/histogram families with
  labels in one registry per :class:`~repro.engine.session.EngineSession`
  (an execution's counters and histograms written by one batch call under
  the registry's one series lock; cache counts and sizes published at
  scrape time by the monitor's ``collect()``), a ``snapshot()`` dict and a
  Prometheus text exposition;
* :mod:`~repro.telemetry.explain` — ``EXPLAIN ANALYZE``: estimated-vs-actual
  rows per vertex / join step / cluster, with the actuals sourced from the
  span attributes of a recorded run;
* :mod:`~repro.telemetry.schema` — validation of emitted JSONL traces
  against the checked-in ``trace_schema.json`` (required span names,
  monotonic timestamps, parent/child closure) and of ``/querylog`` payloads
  against ``querylog_schema.json`` — what the CI trace-smoke job runs;
* :mod:`~repro.telemetry.monitor` / :mod:`~repro.telemetry.qualitylog` —
  the **operational monitoring** subsystem: a per-session query-log ring
  buffer with slow-query trace retention, rolling p50/p95/p99 latency and
  QPS history, per-fingerprint q-error tracking with drift flags and
  cache/resource metrics (opt in with ``EngineSession(monitor=True)``).  The
  monitor's payloads go over HTTP through the query service's one listener,
  ``repro.service.ServiceServer`` (``/metrics`` / ``/health`` /
  ``/querylog`` / ``/quality``); this package never imports the service.

Module-level imports here never touch the engine (the engine's layers
import *this* package); the monitor's cache collector imports engine
internals lazily, inside the function that needs them.
"""

from .explain import ExplainAnalysis, ExplainEntry, build_explain_analysis
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)
from .monitor import (
    MonitorConfig,
    QueryHistory,
    QueryLog,
    QueryLogEntry,
    SessionMonitor,
    rolling_history,
)
from .qualitylog import PlanQualityTracker, QualityObservation, q_error
from .schema import (
    QUERYLOG_SCHEMA_PATH,
    TRACE_SCHEMA_PATH,
    QueryLogValidationError,
    TraceValidationError,
    load_querylog_schema,
    load_trace_schema,
    read_jsonl,
    validate_query_log,
    validate_trace_records,
)
from .tracing import (
    NULL_TRACER,
    JsonlTraceSink,
    NullTracer,
    Span,
    TraceSink,
    Tracer,
    current_tracer,
    merge_phase_times,
    span_totals,
    use_tracer,
)

__all__ = [
    # tracing
    "Tracer", "NullTracer", "NULL_TRACER", "Span",
    "current_tracer", "use_tracer",
    "TraceSink", "JsonlTraceSink",
    "span_totals", "merge_phase_times",
    # metrics
    "MetricsRegistry", "Counter", "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    # explain analyze
    "ExplainAnalysis", "ExplainEntry", "build_explain_analysis",
    # trace schema
    "TRACE_SCHEMA_PATH", "TraceValidationError", "load_trace_schema",
    "read_jsonl", "validate_trace_records",
    # operational monitoring
    "MonitorConfig", "SessionMonitor", "QueryLog", "QueryLogEntry",
    "QueryHistory", "rolling_history",
    "PlanQualityTracker", "QualityObservation", "q_error",
    "QUERYLOG_SCHEMA_PATH", "QueryLogValidationError",
    "load_querylog_schema", "validate_query_log",
]
