"""The unified engine facade: sessions, prepared queries and batched execution.

Maier & Ullman's framing is that the *system*, not the user, picks the
relevant objects and the join strategy; this module is that one entry point
into the engine.  The one evaluator (:mod:`repro.engine.yannakakis`), which
runs acyclic and cyclic plans alike, has no public entry of its own: a
:class:`PreparedQuery` is its only caller.

* :class:`ExecutionOptions` — one immutable config object replacing
  scattered keyword arguments, merged along a clear precedence chain
  (session defaults < an explicit ``options=`` object < keyword overrides);
* :class:`EngineSession` — owns a (thread-safe) :class:`QueryPlanner`, the
  per-database :class:`~repro.engine.catalog.StatisticsCatalog` lifecycle,
  and plan-cache persistence (:meth:`~EngineSession.save` /
  :meth:`~EngineSession.load`);
* :class:`PreparedQuery` — ``session.prepare(source)`` resolves the
  acyclic-vs-cyclic dispatch, the structure plan and (per database) the cost
  annotation **exactly once**; warm :meth:`~PreparedQuery.execute` calls do
  zero cover search, zero structure planning and zero re-annotation for an
  unchanged database;
* :meth:`PreparedQuery.execute_many` — batched execution over many
  databases (shared column blocks, one catalog refresh per database) with
  the per-run accounting aggregated into a :class:`BatchStatistics`.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field, fields, replace
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.hypergraph import Edge, Hypergraph
from ..exceptions import SchemaError, CyclicHypergraphError
from ..relational.database import Database
from ..relational.relation import Relation
from ..relational.schema import Attribute, DatabaseSchema
from ..telemetry.explain import ExplainAnalysis, build_explain_analysis
from ..telemetry.metrics import MetricsRegistry, global_registry
from ..telemetry.monitor import MonitorConfig, SessionMonitor
from ..telemetry.tracing import (
    NULL_TRACER,
    Tracer,
    current_span_tags,
    current_tracer,
    merge_phase_times,
    use_tracer,
)
from .cache import LRUCache, PlanCacheInfo
from .catalog import StatisticsCatalog
from .cyclic.executor import _WarmPrepare
from .deadline import deadline_scope, valid_budget
from .columnar.block import block_cache_size
from .planner import (
    DEFAULT_PLANNER,
    AnnotatedPlan,
    ExecutionPlan,
    QueryPlanner,
    fingerprint_digest,
    schema_fingerprint,
)
from .yannakakis import EngineResult, _evaluate_bound

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from ..queries.conjunctive import ConjunctiveQuery
    from .cyclic.plans import CyclicExecutionPlan

__all__ = [
    "ExecutionOptions",
    "PreparedQuery",
    "BatchStatistics",
    "ExecutionBatch",
    "EngineSession",
    "default_session",
]

#: What ``prepare`` accepts: a conjunctive query, a database (its schema), a
#: database schema, a hypergraph, or a sequence of relations (their schemas).
PreparedSource = Union["ConjunctiveQuery", Database, DatabaseSchema,
                       Hypergraph, Sequence[Relation]]

#: How many prepared queries one session retains.
_PREPARED_CACHE_CAPACITY = 128

#: Sentinel distinguishing "not passed" from an explicit ``None`` sample limit.
_UNSET_SAMPLE_LIMIT: Optional[int] = object()  # type: ignore[assignment]


# --------------------------------------------------------------------------- #
# Options
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExecutionOptions:
    """One immutable bundle of execution knobs, replacing scattered kwargs.

    Precedence when a query is prepared: the session's defaults, overridden
    by an explicit ``options=`` object, overridden by keyword arguments —
    later wins, field by field for the keywords and wholesale for the
    ``options=`` object.

    * ``adaptive`` — annotate plans with a per-database statistics catalog
      (cardinality-chosen root, cost-ordered semijoins and fold order);
    * ``root`` — pin the acyclic rooting instead of letting the annotation
      (or the structure default) choose;
    * ``check_reduction`` — run the reducer's proof-of-reduction hook
      (debug/audit; two extra semijoin scans per tree edge);
    * ``cluster_row_bound`` — cap intra-cluster intermediates on the cyclic
      path (:class:`~repro.exceptions.ClusterBoundExceededError` beyond it);
    * ``sample_limit`` — bound the rows scanned per relation when measuring
      statistics catalogs (the cheap sampling refresh);
    * ``force_cyclic`` — dispatch through the cyclic subsystem even for
      acyclic schemas (its cover degenerates to singletons);
    * ``column_backend`` — the columnar compute backend: ``"array"`` (pure
      Python, always available) or ``"numpy"`` (when installed); ``None``
      inherits the process default (numpy when importable, else array; the
      ``REPRO_COLUMN_BACKEND`` environment variable overrides).  Backends
      change compute, never results.
    * ``decode`` — how results cross the engine boundary: ``"rows"``
      (default) decodes eagerly into a :class:`Relation`; ``"block"``
      builds no rows and defers that to
      ``result.decoded()`` — the win for callers that only need counts,
      emptiness, re-feed blocks into further columnar work, or read the
      answer as plain tuples (``result.block.iter_rows()``; the query
      service serialises every answer from the block through
      :meth:`~repro.engine.columnar.ColumnBlock.wire_payload`).
    * ``trace`` — record spans of every prepare/execute into the owning
      session's :class:`~repro.telemetry.tracing.Tracer` when no ambient
      tracer is already active.  Off by default: the untraced hot path pays
      only null-tracer pointer checks.  An explicitly installed tracer
      (:func:`~repro.telemetry.tracing.use_tracer`) always wins, so
      ``explain(analyze=True)`` and callers with their own sinks are never
      clobbered by this flag.
    * ``deadline_seconds`` — a wall-clock budget per execution.  Enforced
      cooperatively between engine phases (see :mod:`repro.engine.deadline`):
      a breach raises :class:`~repro.exceptions.ExecutionTimeoutError`, and a
      phase already running is never interrupted mid-flight, so the overshoot
      is bounded by the longest single phase.  ``None`` (default) = no limit.
    """

    adaptive: bool = True
    root: Optional[Edge] = None
    check_reduction: bool = False
    cluster_row_bound: Optional[int] = None
    sample_limit: Optional[int] = None
    force_cyclic: bool = False
    column_backend: Optional[str] = None
    decode: str = "rows"
    trace: bool = False
    deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        from .columnar import COLUMN_BACKENDS
        from .yannakakis import DECODE_MODES

        for name in ("adaptive", "check_reduction", "force_cyclic", "trace"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise TypeError(f"{name} must be a bool, not "
                                f"{type(value).__name__}")
        for name, least in (("sample_limit", 1), ("cluster_row_bound", 0)):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, int)
                                      or value < least):
                raise ValueError(f"{name} must be None or an integer "
                                 f">= {least}, not {value!r}")
        if self.deadline_seconds is not None \
                and not valid_budget(self.deadline_seconds):
            raise ValueError("deadline_seconds must be a finite positive "
                             f"number (or None for no deadline), not "
                             f"{self.deadline_seconds!r}")
        if self.column_backend is not None \
                and self.column_backend not in COLUMN_BACKENDS:
            raise ValueError(f"unknown column backend {self.column_backend!r}; "
                             f"expected one of {COLUMN_BACKENDS} or None")
        if self.decode not in DECODE_MODES:
            raise ValueError(f"unknown decode mode {self.decode!r}; "
                             f"expected one of {DECODE_MODES}")

    def merged(self, **overrides: object) -> "ExecutionOptions":
        """A copy with the given fields replaced; unknown names raise ``TypeError``."""
        known = {field.name for field in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise TypeError(f"unknown execution option(s) {sorted(unknown)}; "
                            f"expected a subset of {sorted(known)}")
        return replace(self, **overrides)

    @classmethod
    def resolve(cls, defaults: "ExecutionOptions",
                options: Optional["ExecutionOptions"],
                overrides: Dict[str, object]) -> "ExecutionOptions":
        """Apply the precedence chain: ``defaults`` < ``options`` < ``overrides``."""
        base = options if options is not None else defaults
        return base.merged(**overrides) if overrides else base


# --------------------------------------------------------------------------- #
# Batched statistics
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BatchStatistics:
    """Per-database engine statistics aggregated across one ``execute_many``.

    Duck-type compatible with :class:`~repro.relational.join_plans.JoinStatistics`
    (``plan_name`` / ``input_sizes`` / ``intermediate_sizes`` / ``output_size``
    and the derived ``max_intermediate`` / ``total_intermediate``), so it
    drops into :func:`repro.analysis.reports.statistics_table` — which
    additionally recognises ``runs``/``labels`` and renders the per-database
    breakdown plus a totals row.
    """

    plan_name: str
    labels: Tuple[str, ...]
    runs: Tuple[object, ...]

    @classmethod
    def from_runs(cls, runs: Sequence[object], *,
                  labels: Optional[Sequence[str]] = None,
                  plan_name: str = "session-batch") -> "BatchStatistics":
        """Aggregate per-run statistics; labels default to ``db0, db1, …``."""
        if labels is None:
            labels = tuple(f"db{index}" for index in range(len(runs)))
        labels = tuple(labels)
        if len(labels) != len(runs):
            raise ValueError("one label per run is required")
        return cls(plan_name=plan_name, labels=labels, runs=tuple(runs))

    # -- JoinStatistics-compatible surface --------------------------------- #
    @property
    def input_sizes(self) -> Tuple[int, ...]:
        """Every run's input sizes, concatenated."""
        return tuple(size for run in self.runs for size in run.input_sizes)

    @property
    def intermediate_sizes(self) -> Tuple[int, ...]:
        """Every run's intermediate sizes, concatenated."""
        return tuple(size for run in self.runs for size in run.intermediate_sizes)

    @property
    def output_size(self) -> int:
        """Total rows returned across the batch."""
        return sum(run.output_size for run in self.runs)

    @property
    def max_intermediate(self) -> int:
        """The largest intermediate any run materialised."""
        return max((run.max_intermediate for run in self.runs), default=0)

    @property
    def total_intermediate(self) -> int:
        """The summed intermediate work across the batch."""
        return sum(run.total_intermediate for run in self.runs)

    # -- engine-statistics surface ----------------------------------------- #
    @property
    def semijoin_steps(self) -> int:
        """Total semijoin steps across the batch."""
        return sum(getattr(run, "semijoin_steps", 0) for run in self.runs)

    @property
    def rows_removed_by_reduction(self) -> int:
        """Total dangling rows removed across the batch."""
        return sum(getattr(run, "rows_removed_by_reduction", 0) for run in self.runs)

    @property
    def plan_cache_hit(self) -> bool:
        """``True`` when every run served its plan from cache."""
        return bool(self.runs) and all(getattr(run, "plan_cache_hit", False)
                                       for run in self.runs)

    @property
    def index_cache_hits(self) -> Optional[int]:
        """Total physical-structure cache hits (indexes/blocks) across the batch.

        ``None`` when no run carries the counter (e.g. a naive-only batch),
        so reports render "-" instead of a fabricated measured zero.
        """
        counted = [run.index_cache_hits for run in self.runs
                   if hasattr(run, "index_cache_hits")]
        return sum(counted) if counted else None

    @property
    def index_cache_misses(self) -> Optional[int]:
        """Total physical-structure cache misses across the batch (see hits)."""
        counted = [run.index_cache_misses for run in self.runs
                   if hasattr(run, "index_cache_misses")]
        return sum(counted) if counted else None

    @property
    def adaptive(self) -> bool:
        """``True`` when every run executed with a cost annotation."""
        return bool(self.runs) and all(getattr(run, "adaptive", False)
                                       for run in self.runs)

    @property
    def estimated_max_intermediate(self) -> Optional[int]:
        """The largest predicted intermediate, when every run was adaptive."""
        if not self.adaptive:
            return None
        estimates = [getattr(run, "estimated_max_intermediate", None)
                     for run in self.runs]
        return max((e for e in estimates if e is not None), default=0)

    @property
    def estimated_output_size(self) -> Optional[int]:
        """The summed predicted output, when every run predicted one."""
        if not self.adaptive:
            return None
        estimates = [getattr(run, "estimated_output_size", None) for run in self.runs]
        if any(estimate is None for estimate in estimates):
            return None
        return sum(estimates)

    @property
    def phase_times(self) -> Tuple[Tuple[str, float], ...]:
        """Per-phase wall-time summed across the batch (empty when untimed)."""
        return merge_phase_times(*(getattr(run, "phase_times", ()) or ()
                                   for run in self.runs))

    @property
    def elapsed_seconds(self) -> Optional[float]:
        """Total measured wall-time across the batch (``None`` when untimed)."""
        phases = self.phase_times
        if not phases:
            return None
        return sum(seconds for _, seconds in phases)

    @property
    def planner_hit_ratio(self) -> Optional[float]:
        """The last run's planner hit ratio (the batch-end state of the LRU)."""
        for run in reversed(self.runs):
            ratio = getattr(run, "planner_hit_ratio", None)
            if ratio is not None:
                return ratio
        return None

    def describe(self) -> str:
        """A one-line batch summary aligned with ``JoinStatistics.describe``."""
        summary = (f"{self.plan_name}: {len(self.runs)} databases "
                   f"inputs={sum(self.input_sizes)} max={self.max_intermediate} "
                   f"total_intermediate={self.total_intermediate} "
                   f"output={self.output_size} "
                   f"plan_cache={'hit' if self.plan_cache_hit else 'miss'}")
        elapsed = self.elapsed_seconds
        if elapsed is not None:
            phases = " ".join(f"{phase}={seconds * 1000:.2f}ms"
                              for phase, seconds in self.phase_times)
            summary += f" wall={elapsed * 1000:.2f}ms ({phases})"
        return summary


@dataclass(frozen=True)
class ExecutionBatch:
    """The results of one ``execute_many``: per-database results plus aggregates."""

    results: Tuple[EngineResult, ...]
    statistics: BatchStatistics

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int):
        return self.results[index]

    @property
    def relations(self) -> Tuple[Relation, ...]:
        """The per-database answer relations, in batch order.

        Decodes deferred (``decode="block"``) results on access, so batch
        callers see relations regardless of the decode option.
        """
        return tuple(result.decoded() for result in self.results)


# --------------------------------------------------------------------------- #
# Prepared queries
# --------------------------------------------------------------------------- #
def _relations_hypergraph(relations: Sequence[Relation]) -> Hypergraph:
    """The hypergraph of a relation sequence's schemes."""
    return Hypergraph([relation.schema.attribute_set for relation in relations])


def _check_outputs(wanted: Iterable[Attribute], hypergraph: Hypergraph) -> None:
    """:class:`SchemaError` unless every output attribute is in the schema."""
    missing = frozenset(wanted) - hypergraph.nodes
    if missing:
        raise SchemaError(
            f"output attributes {sorted(missing, key=str)} are not in the schema")


@dataclass(frozen=True)
class _DatabaseBinding:
    """Everything one database needs at execution time, resolved once.

    ``warm`` is the cyclic materialise step's memo of this binding's
    prepare-phase artefacts (``None`` on the acyclic path), so it is freed
    with the binding.
    """

    relations: Tuple[Relation, ...]
    catalog: Optional[StatisticsCatalog]
    plan: object  # ExecutionPlan | AnnotatedPlan | CyclicExecutionPlan
    warm: Optional[_WarmPrepare] = field(default=None, compare=False)


class PreparedQuery:
    """A query compiled once: dispatch, structure plan and per-database annotation.

    Obtained from :meth:`EngineSession.prepare`.  The acyclic-vs-cyclic
    dispatch and the structure plan are resolved at preparation time; the
    data-dependent half (statistics catalog, cost annotation, adaptive cover
    choice) is resolved once per database on first :meth:`execute` and then
    memoized (weakly, keyed by database identity), so warm executions do no
    planning work of any kind.
    """

    def __init__(self, session: "EngineSession", *, kind: str,
                 structure: object, hypergraph: Hypergraph,
                 output_attributes: Optional[Tuple[Attribute, ...]],
                 options: ExecutionOptions, name: str,
                 query: Optional["ConjunctiveQuery"] = None) -> None:
        self._session = session
        self._kind = kind
        self._structure = structure
        self._hypergraph = hypergraph
        self._output = output_attributes
        self._wanted: Optional[FrozenSet[Attribute]] = (
            frozenset(output_attributes) if output_attributes is not None else None)
        self._options = options
        self._name = name
        self._query = query
        # The digest is hashed once here — the monitor stamps it on every
        # query-log entry, so the execute path must not re-hash per run.
        self._digest = fingerprint_digest(structure.fingerprint)
        self._bindings: "weakref.WeakKeyDictionary[Database, _DatabaseBinding]" = \
            weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def kind(self) -> str:
        """``"acyclic"`` or ``"cyclic"`` — the dispatch resolved at prepare time."""
        return self._kind

    @property
    def fingerprint(self):
        """The schema fingerprint the structure plan was compiled for."""
        return self._structure.fingerprint

    @property
    def options(self) -> ExecutionOptions:
        """The options the query was prepared with (fully resolved)."""
        return self._options

    @property
    def output_attributes(self) -> Optional[Tuple[Attribute, ...]]:
        """The projection attributes, in order (``None`` = full join)."""
        return self._output

    @property
    def name(self) -> str:
        """The name given to answer relations."""
        return self._name

    @property
    def structure(self) -> object:
        """The data-independent structure plan (acyclic or cyclic)."""
        return self._structure

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(self, database: Database) -> EngineResult:
        """Evaluate against one database; warm calls do zero planning work.

        Returns an :class:`~repro.engine.yannakakis.EngineResult` for either
        dispatch: one evaluator runs both, a cyclic plan adding only its
        materialise step.  The first execution against a database binds it:
        checks its schema fingerprint and the outputs against it (raising
        :class:`~repro.exceptions.SchemaError` on a mismatch, every time —
        a failed binding is not memoised) and resolves its statistics
        catalog and cost annotation.  Subsequent executions against the
        *same* database reuse the binding outright — no cover search, no
        structure planning, no re-annotation, and no structural
        re-derivation either: no hypergraph, no fingerprint, and the fold
        replays the plan's compiled program.  Only the data kernels run.
        """
        try:
            binding = self._binding_for(database)
        except Exception as error:
            # Binding resolution (schema check, catalog measurement) fails
            # before any span opens, but the monitor's log must still see it:
            # a misrouted query is exactly what an operator greps the log for.
            self._session._record_error(self._kind)
            monitor = self._session._monitor
            if monitor is not None:
                monitor.observe_error(query=self._name,
                                      fingerprint=self._digest,
                                      kind=self._kind, elapsed_seconds=0.0,
                                      error=error, database=database)
            raise
        if self._options.trace and current_tracer() is NULL_TRACER:
            with use_tracer(self._session.tracer):
                return self._traced_run(binding, database=database)
        return self._traced_run(binding, database=database)

    def execute_many(self, databases: Iterable[Database], *,
                     labels: Optional[Sequence[str]] = None,
                     max_workers: Optional[int] = None,
                     pool: Optional[object] = None) -> ExecutionBatch:
        """Evaluate against many databases; aggregate the accounting.

        Column blocks are shared across the batch (they are cached per
        relation instance), the statistics catalog is refreshed exactly once
        per distinct database, and the per-run statistics are folded into a
        :class:`BatchStatistics` that
        :func:`repro.analysis.reports.statistics_table` renders as a
        per-database breakdown plus a totals row.

        ``max_workers`` (or an explicit
        :class:`~repro.service.pool.ExecutionPool` via ``pool=``) runs the
        per-database executions on a thread pool — the runs are independent
        once prepared (the planner LRU, prepared caches and columnar caches
        are all safe under concurrent executes), results come back in batch
        order, and ambient context (tracer, deadline, span tags) propagates
        into the workers.  The default stays serial: for CPU-bound pure
        Python work the GIL serialises the runs anyway, so threads pay off
        when the caller overlaps execution with I/O or other native work
        (the query service's case), not in a tight in-process loop.
        """
        databases = tuple(databases)
        if pool is not None or (max_workers is not None and max_workers > 1
                                and len(databases) > 1):
            # Imported lazily: the service package sits above the engine
            # (its server imports this module), so the engine only touches
            # it when a caller asks for the parallel path.
            from ..service.pool import ExecutionPool

            if pool is None:
                with ExecutionPool(max_workers=max_workers) as transient:
                    results = tuple(transient.map_ordered(self.execute,
                                                          databases))
            else:
                results = tuple(pool.map_ordered(self.execute, databases))
        else:
            results = tuple(self.execute(database) for database in databases)
        statistics = BatchStatistics.from_runs(
            tuple(result.statistics for result in results), labels=labels,
            plan_name=f"session-batch:{self._name}")
        return ExecutionBatch(results=results, statistics=statistics)

    def execute_relations(self, relations: Sequence[Relation]) -> EngineResult:
        """Evaluate against an explicit relation sequence (no memoization).

        The relations' schemas must match the prepared fingerprint.  Used by
        callers that assemble relation sets outside a :class:`Database` (e.g.
        the maximal-object window); per-call catalogs are measured when the
        options are adaptive, but nothing is memoized — prefer
        :meth:`execute` for repeated traffic.
        """
        binding = self._bind_relations(tuple(relations))
        if self._options.trace and current_tracer() is NULL_TRACER:
            with use_tracer(self._session.tracer):
                return self._traced_run(binding)
        return self._traced_run(binding)

    def explain(self, database: Optional[Database] = None, *,
                analyze: bool = False) -> str:
        """A human-readable account of the prepared plan.

        Without a database: dispatch kind, options and the structure plan.
        With one: additionally the resolved per-database half — the cost
        annotation (acyclic) or the catalog-chosen cover (cyclic).

        ``analyze=True`` (EXPLAIN ANALYZE) *executes* the query against the
        database under a recording tracer and renders the annotated plan tree
        with estimated vs **actual** rows per vertex, join step and cluster —
        see :meth:`explain_analyze` for the structured form.
        """
        if analyze:
            if database is None:
                raise ValueError("explain(analyze=True) executes the query, "
                                 "so it needs a database")
            return self.explain_analyze(database).render()
        wanted = "*" if self._output is None else \
            ", ".join(str(attribute) for attribute in self._output)
        lines = [f"PreparedQuery {self._name!r}: {self._kind} dispatch, "
                 f"fingerprint {fingerprint_digest(self.fingerprint)}",
                 f"  outputs: {wanted}",
                 f"  options: {self._options}"]
        lines.append(self._structure.describe())
        if database is not None:
            binding = self._binding_for(database)
            if isinstance(binding.plan, AnnotatedPlan):
                lines.append(binding.plan.annotation.describe())
            elif binding.plan is not self._structure:
                lines.append("catalog-chosen cyclic plan:")
                lines.append(binding.plan.describe())
            if binding.catalog is not None:
                lines.append(binding.catalog.describe())
        return "\n".join(lines)

    def explain_analyze(self, database: Database) -> ExplainAnalysis:
        """Execute against ``database`` under a recording tracer; return the analysis.

        The returned :class:`~repro.telemetry.explain.ExplainAnalysis` pairs
        the annotation's *estimates* with the *actual* cardinalities sourced
        from the trace's span attributes (not copied from the statistics
        object — the trace is an independent witness), plus the measured
        per-phase wall-times.  ``.render()`` gives the textual report.
        """
        tracer = Tracer()
        with use_tracer(tracer):
            result = self.execute(database)
        binding = self._binding_for(database)
        vertex_estimates: Dict[str, float] = {}
        if isinstance(binding.plan, AnnotatedPlan):
            from ..core.nodes import format_node_set

            estimates = binding.plan.annotation.reduced_estimates
            for vertex, _parent in binding.plan.rooted.order:
                estimate = estimates.get(vertex)
                if estimate is not None:
                    vertex_estimates[format_node_set(vertex)] = estimate
        return build_explain_analysis(
            name=self._name, kind=self._kind, statistics=result.statistics,
            records=tuple(tracer.records), vertex_estimates=vertex_estimates,
            plan_description=self._structure.describe())

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _traced_run(self, binding: "_DatabaseBinding",
                    database: Optional[Database] = None):
        """Run one execution under an ``execute`` root span.

        Feeds the session's metrics and — when the session carries a
        :class:`~repro.telemetry.monitor.SessionMonitor` — its query log.
        When the monitor has *armed* slow-query tracing for this query (its
        previous run breached the threshold untraced) and no ambient tracer
        is installed, the run executes under a private recording tracer
        whose spans the monitor retains on the slow log entry.
        """
        monitor = self._session._monitor
        if monitor is not None \
                and monitor.config.slow_query_seconds is not None \
                and current_tracer() is NULL_TRACER \
                and monitor.wants_trace(self._name):
            capture = Tracer()
            with use_tracer(capture):
                return self._recorded_run(binding, database, capture)
        return self._recorded_run(binding, database, None)

    def _recorded_run(self, binding: "_DatabaseBinding",
                      database: Optional[Database],
                      capture: Optional[Tracer]):
        session = self._session
        monitor = session._monitor
        span = current_tracer().span("execute")
        started = perf_counter()
        try:
            with span:
                result = self._run(binding)
                if span.is_recording:
                    # Ambient request attribution (the query service installs
                    # client/request ids via use_span_tags) lands first so
                    # the engine's own attributes win any key clash.
                    for key, value in current_span_tags():
                        span.set(key, value)
                    span.set("query", self._name)
                    span.set("kind", self._kind)
                    span.set("output_rows", result.statistics.output_size)
        except Exception as error:
            session._record_error(self._kind)
            if monitor is not None:
                monitor.observe_error(
                    query=self._name, fingerprint=self._digest,
                    kind=self._kind,
                    elapsed_seconds=perf_counter() - started,
                    error=error, database=database)
            raise
        elapsed = perf_counter() - started
        session._record_execution(self._kind, result.statistics, elapsed)
        if monitor is not None:
            monitor.observe(
                query=self._name, fingerprint=self._digest, kind=self._kind,
                statistics=result.statistics, elapsed_seconds=elapsed,
                database=database,
                trace_records=tuple(capture.records)
                if capture is not None else None)
        return result

    def _binding_for(self, database: Database) -> _DatabaseBinding:
        """The memoized per-database execution state (resolved on first use).

        Resolution (catalog measurement + annotation) runs *outside* the
        session lock — measuring is what ingests a never-seen database (the
        exact catalog encodes every relation into its cached block and
        counts from the id columns), and holding the lock would stall every
        other warm execution behind one cold database.  It honours an
        ambient deadline relation by relation (phase ``"ingest"``).  Two
        threads racing on the same cold database may both resolve; bindings
        are immutable and interchangeable, and the first insert wins.
        """
        with self._session._lock:
            binding = self._bindings.get(database)
        if binding is not None:
            return binding
        binding = self._resolve_binding(database)
        with self._session._lock:
            return self._bindings.setdefault(database, binding)

    def _resolve_binding(self, database: Database) -> _DatabaseBinding:
        if self._query is not None:
            relations = tuple(self._query.atom_relations(database))
            self._check_schema(_relations_hypergraph(relations),
                               "these atom relations'")
            catalog = None
            if self._options.adaptive:
                catalog = StatisticsCatalog.from_relations(
                    relations, sample_limit=self._options.sample_limit)
        else:
            self._check_schema(database.schema.to_hypergraph(),
                               "this database's")
            relations = database.relations()
            catalog = None
            if self._options.adaptive:
                catalog = self._session.catalog_for(
                    database, sample_limit=self._options.sample_limit)
        return self._binding(relations, catalog)

    def _bind_relations(self, relations: Tuple[Relation, ...]) -> _DatabaseBinding:
        self._check_schema(_relations_hypergraph(relations), "these relations'")
        catalog = None
        if self._options.adaptive:
            catalog = StatisticsCatalog.from_relations(
                relations, sample_limit=self._options.sample_limit)
        return self._binding(relations, catalog)

    def _binding(self, relations: Tuple[Relation, ...],
                 catalog: Optional[StatisticsCatalog]) -> _DatabaseBinding:
        return _DatabaseBinding(
            relations=relations, catalog=catalog, plan=self._plan_with(catalog),
            warm=_WarmPrepare() if self._kind == "cyclic" else None)

    def _check_schema(self, hypergraph: Hypergraph, whose: str) -> None:
        """The structural checks a binding is trusted on for its whole life.

        The schema fingerprint must be the prepared one and the outputs must
        lie within the schema; the engine's bound evaluators repeat neither.
        """
        if schema_fingerprint(hypergraph) != self.fingerprint:
            raise SchemaError(
                "the prepared query was compiled for a different schema "
                f"fingerprint than {whose}")
        if self._wanted is not None:
            _check_outputs(self._wanted, hypergraph)

    def _plan_with(self, catalog: Optional[StatisticsCatalog]) -> object:
        """Compose the structure plan with a catalog (static plans pass through)."""
        if catalog is None:
            return self._structure
        planner = self._session.planner
        if self._kind == "acyclic":
            return planner.annotate(self._hypergraph, catalog,
                                    output_attributes=self._output,
                                    root=self._options.root)
        return planner.cyclic_plan_for(self._hypergraph, catalog=catalog)

    def _run(self, binding: _DatabaseBinding):
        options = self._options
        if options.deadline_seconds is not None:
            with deadline_scope(options.deadline_seconds):
                return self._run_engine(binding)
        return self._run_engine(binding)

    def _run_engine(self, binding: _DatabaseBinding) -> EngineResult:
        options = self._options
        # The binding was checked when it was built, so the engine runs its
        # bound body: no hypergraph, no fingerprint, no output check.
        return _evaluate_bound(
            binding.relations, self._wanted, binding.plan,
            catalog=binding.catalog, name=self._name,
            check_reduction=options.check_reduction,
            cluster_row_bound=options.cluster_row_bound,
            column_backend=options.column_backend,
            decode=options.decode, warm=binding.warm)


# --------------------------------------------------------------------------- #
# The session
# --------------------------------------------------------------------------- #
class EngineSession:
    """The engine's single intelligent entry point.

    A session owns a thread-safe :class:`QueryPlanner` (structure plans,
    cover search, LRU + disk persistence), the per-database statistics
    catalogs, and a prepared-query cache, so heavy repeated traffic compiles
    each query once and executes it many times::

        session = EngineSession()
        prepared = session.prepare(database, ("C0", "C3"))
        for db in incoming:                 # hot path: zero planning work
            answer = prepared.execute(db).relation

    ``EngineSession()`` builds a private planner; pass ``planner=`` to share
    one (the process-wide :func:`default_session` wraps
    :data:`~repro.engine.planner.DEFAULT_PLANNER`, so the query layer and
    session users share a single plan cache).
    """

    def __init__(self, planner: Optional[QueryPlanner] = None, *,
                 options: Optional[ExecutionOptions] = None,
                 planner_capacity: int = 128,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 monitor: Union[None, bool, MonitorConfig,
                                SessionMonitor] = None,
                 **overrides: object) -> None:
        self._planner = planner if planner is not None \
            else QueryPlanner(planner_capacity)
        self._options = ExecutionOptions.resolve(
            ExecutionOptions(), options, dict(overrides))
        # Every session owns a tracer (used when ``options.trace`` is on and
        # no ambient tracer is installed) and a metrics registry parented to
        # the process-wide one, so per-session counters roll up automatically.
        self._tracer = tracer if tracer is not None else Tracer()
        self._metrics = metrics if metrics is not None \
            else MetricsRegistry(parent=global_registry())
        # Opt-in operational monitoring: ``True`` (defaults), a
        # MonitorConfig, or a ready SessionMonitor.  Bound after the planner
        # and registry exist — bind() captures both.
        self._monitor: Optional[SessionMonitor] = self._resolve_monitor(monitor)
        # Resolved metric series handles, keyed by kind / phase name: the
        # per-execution path must not pay the name+label family lookup.
        self._execution_series_cache: Dict[str, Dict[str, object]] = {}
        self._phase_series_cache: Dict[str, object] = {}
        self._lock = threading.RLock()
        # Prepared queries, keyed ("query", id(query), outputs, options, name)
        # or ("schema", fingerprint, outputs, options, name).  An id key
        # cannot be recycled while its entry lives: the PreparedQuery holds
        # its query strongly.
        self._prepared: LRUCache[PreparedQuery] = LRUCache(_PREPARED_CACHE_CAPACITY)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def planner(self) -> QueryPlanner:
        """The session's planner (shared structure-plan cache)."""
        return self._planner

    @property
    def options(self) -> ExecutionOptions:
        """The session's default execution options."""
        return self._options

    @property
    def tracer(self) -> Tracer:
        """The session's tracer (records when ``options.trace`` routes through it)."""
        return self._tracer

    @property
    def metrics(self) -> MetricsRegistry:
        """The session's metrics registry (parented to the process-wide one)."""
        return self._metrics

    @property
    def monitor(self) -> Optional[SessionMonitor]:
        """The session's operational monitor (``None`` unless opted in)."""
        return self._monitor

    @monitor.setter
    def monitor(self, monitor: "Union[None, bool, MonitorConfig, SessionMonitor]") -> None:
        """Attach (``True`` / config / monitor) or detach (``None``/``False``)
        operational monitoring on a live session.  Detaching keeps the
        monitor object intact — re-attach it later and the query log and
        quality records continue where they left off."""
        self._monitor = self._resolve_monitor(monitor)

    def _resolve_monitor(self, monitor: "Union[None, bool, MonitorConfig, SessionMonitor]"
                         ) -> Optional[SessionMonitor]:
        if monitor is None or monitor is False:
            return None
        if monitor is True:
            return SessionMonitor().bind(self)
        if isinstance(monitor, SessionMonitor):
            return monitor.bind(self)
        if isinstance(monitor, MonitorConfig):
            return SessionMonitor(monitor).bind(self)
        raise TypeError("monitor= expects True, a MonitorConfig or a "
                        f"SessionMonitor, not {type(monitor).__name__}")

    # ------------------------------------------------------------------ #
    # Catalog lifecycle
    # ------------------------------------------------------------------ #
    def catalog_for(self, database: Database, *,
                    sample_limit: Optional[int] = _UNSET_SAMPLE_LIMIT,
                    refresh: bool = False) -> StatisticsCatalog:
        """The statistics catalog for one database, measured once per instance.

        Databases are immutable, so a catalog never goes stale; the
        measurement is cached on the database instance itself (see
        :meth:`Database.statistics_catalog
        <repro.relational.database.Database.statistics_catalog>`), keyed by
        ``sample_limit`` — which defaults to the session's option.
        ``refresh=True`` forces a re-measure.  Measurement reads data (the
        first exact catalog of a database is what encodes it) and runs
        entirely outside the session lock.
        """
        if sample_limit is _UNSET_SAMPLE_LIMIT:
            sample_limit = self._options.sample_limit
        return database.statistics_catalog(sample_limit=sample_limit,
                                           refresh=refresh)

    # ------------------------------------------------------------------ #
    # Preparation
    # ------------------------------------------------------------------ #
    def prepare(self, source: PreparedSource,
                output_attributes: Optional[Iterable[Attribute]] = None, *,
                options: Optional[ExecutionOptions] = None,
                name: Optional[str] = None,
                **overrides: object) -> PreparedQuery:
        """Compile ``source`` into a :class:`PreparedQuery` (cached per schema).

        ``source`` may be a :class:`~repro.queries.conjunctive.ConjunctiveQuery`
        (its atoms are re-derived per database at execution time), a
        :class:`Database` / :class:`DatabaseSchema` / :class:`Hypergraph`
        (prepared at the schema level; ``execute`` joins the database's
        relations), or a sequence of :class:`Relation` objects (prepared from
        their schemas).  Dispatch — acyclic engine vs cyclic subsystem — is
        resolved here, once: the session tries the acyclic planner first and
        falls back to the cluster cover on
        :class:`~repro.exceptions.CyclicHypergraphError` (``force_cyclic``
        skips straight to the cover).  Preparation results are cached, so
        repeated ``prepare`` calls with the same schema, outputs and options
        return the same object.
        """
        resolved = ExecutionOptions.resolve(self._options, options, dict(overrides))
        from ..queries.conjunctive import ConjunctiveQuery

        if isinstance(source, ConjunctiveQuery) and output_attributes is None:
            # Warm fast path: the key of a query prepared on its own head is
            # derivable from the head alone — no hypergraph construction.
            query, hypergraph = source, None
            wanted = tuple(variable.name for variable in source.head)
            final_name = name if name is not None else source.name
        else:
            query, hypergraph, default_name = self._normalise_source(source)
            wanted = self._normalise_outputs(output_attributes, query, hypergraph)
            final_name = name if name is not None else default_name
        if query is not None:
            key = ("query", id(query), wanted, resolved, final_name)
        else:
            key = ("schema", schema_fingerprint(hypergraph), wanted, resolved,
                   final_name)

        def build() -> PreparedQuery:
            graph = hypergraph if hypergraph is not None else query.hypergraph()
            if resolved.trace and current_tracer() is NULL_TRACER:
                with use_tracer(self._tracer):
                    kind, structure = self._dispatch_traced(graph, query, resolved)
            else:
                kind, structure = self._dispatch_traced(graph, query, resolved)
            return PreparedQuery(self, kind=kind, structure=structure,
                                 hypergraph=graph,
                                 output_attributes=wanted, options=resolved,
                                 name=final_name, query=query)

        return self._prepared.get_or_build(key, build)

    def _normalise_source(self, source: PreparedSource):
        """Split a prepare source into (query?, hypergraph, default name)."""
        from ..queries.conjunctive import ConjunctiveQuery

        if isinstance(source, ConjunctiveQuery):
            return source, source.hypergraph(), source.name
        if isinstance(source, Database):
            return None, source.schema.to_hypergraph(), "U"
        if isinstance(source, DatabaseSchema):
            return None, source.to_hypergraph(), "U"
        if isinstance(source, Hypergraph):
            return None, source, "U"
        try:
            relations = tuple(source)
        except TypeError:
            relations = ()
        if not relations or not all(isinstance(r, Relation) for r in relations):
            raise SchemaError(
                "prepare expects a ConjunctiveQuery, Database, DatabaseSchema, "
                "Hypergraph or a non-empty sequence of Relations")
        return None, _relations_hypergraph(relations), "yannakakis"

    @staticmethod
    def _normalise_outputs(output_attributes, query, hypergraph
                           ) -> Optional[Tuple[Attribute, ...]]:
        if output_attributes is None:
            if query is not None:
                return tuple(variable.name for variable in query.head)
            return None
        wanted = tuple(dict.fromkeys(output_attributes))
        _check_outputs(wanted, hypergraph)
        return wanted

    def _dispatch_traced(self, hypergraph: Hypergraph,
                         query: Optional["ConjunctiveQuery"],
                         options: ExecutionOptions) -> Tuple[str, object]:
        """Dispatch under a ``prepare`` span (cover search traces beneath it)."""
        span = current_tracer().span("prepare")
        with span:
            kind, structure = self._dispatch(hypergraph, query, options)
            if span.is_recording:
                span.set("kind", kind)
                span.set("fingerprint",
                         fingerprint_digest(structure.fingerprint))
            return kind, structure

    def _dispatch(self, hypergraph: Hypergraph,
                  query: Optional["ConjunctiveQuery"],
                  options: ExecutionOptions) -> Tuple[str, object]:
        """Resolve acyclic-vs-cyclic dispatch and compile the structure plan."""
        if not options.force_cyclic and (query is None or query.is_acyclic()):
            try:
                return "acyclic", self._planner.plan_for(hypergraph,
                                                         root=options.root)
            except CyclicHypergraphError:
                # GYO and the join-tree construction can disagree on
                # degenerate hypergraphs (e.g. empty edges from all-constant
                # atoms); the cyclic subsystem folds those into a cluster.
                pass
        return "cyclic", self._planner.cyclic_plan_for(hypergraph)

    # ------------------------------------------------------------------ #
    # One-shot execution conveniences
    # ------------------------------------------------------------------ #
    def execute(self, source: PreparedSource, database: Database,
                output_attributes: Optional[Iterable[Attribute]] = None,
                **prepare_kwargs: object):
        """``prepare(source, …).execute(database)`` in one call.

        Preparation is cached, so repeated ``execute`` calls with the same
        source/outputs/options hit the warm path exactly like a held
        :class:`PreparedQuery`.
        """
        return self.prepare(source, output_attributes,
                            **prepare_kwargs).execute(database)

    def execute_many(self, source: PreparedSource,
                     databases: Iterable[Database],
                     output_attributes: Optional[Iterable[Attribute]] = None, *,
                     labels: Optional[Sequence[str]] = None,
                     max_workers: Optional[int] = None,
                     pool: Optional[object] = None,
                     **prepare_kwargs: object) -> ExecutionBatch:
        """``prepare(source, …).execute_many(databases, …)`` in one call.

        ``max_workers`` (or a shared ``pool=``) overlaps the per-database
        runs on a thread pool — see :meth:`PreparedQuery.execute_many` for
        the concurrency contract.
        """
        prepared = self.prepare(source, output_attributes, **prepare_kwargs)
        return prepared.execute_many(databases, labels=labels,
                                     max_workers=max_workers, pool=pool)

    def execute_join(self, relations: Sequence[Relation],
                     output_attributes: Optional[Iterable[Attribute]] = None, *,
                     name: Optional[str] = None, **prepare_kwargs: object):
        """Join an explicit relation sequence (dispatch resolved by the session).

        The schema-level preparation is cached by fingerprint, so repeated
        joins over the same shapes reuse the compiled dispatch; the relation
        *contents* are taken from the arguments on every call.
        """
        relations = tuple(relations)
        prepared = self.prepare(relations, output_attributes, name=name,
                                **prepare_kwargs)
        return prepared.execute_relations(relations)

    def explain(self, source: PreparedSource,
                database: Optional[Database] = None,
                output_attributes: Optional[Iterable[Attribute]] = None,
                **prepare_kwargs: object) -> str:
        """The prepared plan's explanation (see :meth:`PreparedQuery.explain`)."""
        return self.prepare(source, output_attributes,
                            **prepare_kwargs).explain(database)

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def _record_execution(self, kind: str, statistics: object,
                          elapsed_seconds: float) -> None:
        """Fold one execution's accounting into the session's metrics.

        Also stamps ``statistics.planner_hit_ratio`` — the serving planner is
        session state, so the per-run statistics object cannot compute the
        ratio itself.
        """
        info = self._planner.cache_info()
        lookups = info.hits + info.misses
        ratio = (info.hits / lookups) if lookups else None
        if ratio is not None and hasattr(statistics, "planner_hit_ratio"):
            statistics.planner_hit_ratio = ratio
        series = self._execution_series(kind)
        series["queries"].inc()
        series["semijoins"].inc(getattr(statistics, "semijoin_steps", 0) or 0)
        series["removed"].inc(
            getattr(statistics, "rows_removed_by_reduction", 0) or 0)
        series["output"].inc(getattr(statistics, "output_size", 0) or 0)
        hit = bool(getattr(statistics, "plan_cache_hit", False))
        series["cache_hit" if hit else "cache_miss"].inc()
        series["latency"].observe(elapsed_seconds)
        for phase, seconds in getattr(statistics, "phase_times", ()) or ():
            histogram = self._phase_series_cache.get(phase)
            if histogram is None:
                histogram = self._phase_series_cache[phase] = \
                    self._metrics.histogram("engine_phase_seconds",
                                            "Per-phase latency.",
                                            labels={"phase": phase})
            histogram.observe(seconds)
        if ratio is not None:
            series["hit_ratio"].set(ratio)
        series["cache_size"].set(info.size)
        series["blocks"].set(block_cache_size())

    def _execution_series(self, kind: str) -> Dict[str, object]:
        """The resolved metric series the per-execution path records into.

        Resolving a series walks the family registry (name lookup, label-key
        canonicalisation, parent chaining) under a lock — fine once, too slow
        per query.  The handles are stable once created, so cache them.
        """
        series = self._execution_series_cache.get(kind)
        if series is None:
            metrics = self._metrics
            series = self._execution_series_cache[kind] = {
                "queries": metrics.counter(
                    "engine_queries_total",
                    "Queries executed through the session.",
                    labels={"kind": kind}),
                "semijoins": metrics.counter(
                    "engine_semijoin_steps_total",
                    "Semijoin steps run by the full reducer."),
                "removed": metrics.counter(
                    "engine_rows_removed_total",
                    "Dangling rows removed by reduction."),
                "output": metrics.counter(
                    "engine_rows_output_total",
                    "Answer rows returned to callers."),
                "cache_hit": metrics.counter(
                    "engine_plan_cache_requests_total",
                    "Plan-cache lookups by outcome.",
                    labels={"outcome": "hit"}),
                "cache_miss": metrics.counter(
                    "engine_plan_cache_requests_total",
                    "Plan-cache lookups by outcome.",
                    labels={"outcome": "miss"}),
                "latency": metrics.histogram(
                    "engine_query_seconds", "End-to-end query latency."),
                "hit_ratio": metrics.gauge(
                    "engine_planner_cache_hit_ratio",
                    "The session planner's LRU hit ratio."),
                "cache_size": metrics.gauge(
                    "engine_planner_cache_size",
                    "Compiled plans resident in the planner LRU."),
                "blocks": metrics.gauge(
                    "engine_blocks_cached",
                    "Relations holding a cached column block."),
            }
        return series

    def _record_error(self, kind: str) -> None:
        """Count one failed execution."""
        self._metrics.counter("engine_query_errors_total",
                              "Queries that raised during execution.",
                              labels={"kind": kind}).inc()

    # ------------------------------------------------------------------ #
    # Cache lifecycle
    # ------------------------------------------------------------------ #
    def save(self, path) -> int:
        """Persist the planner's plan cache to ``path`` (atomic JSON file)."""
        return self._planner.save_cache(path)

    def load(self, path, *, missing_ok: bool = False) -> int:
        """Warm the planner from a :meth:`save` file; return plans compiled."""
        return self._planner.load_cache(path, missing_ok=missing_ok)

    def cache_info(self) -> PlanCacheInfo:
        """The planner's hit/miss/size counters."""
        return self._planner.cache_info()

    def clear(self) -> None:
        """Drop cached plans and prepared queries."""
        self._planner.clear()
        self._prepared.clear()

    def describe(self) -> str:
        """A one-line session summary (plan cache, prepared queries)."""
        info = self.cache_info()
        return (f"EngineSession(plans={info.size}/{info.capacity} "
                f"hits={info.hits} misses={info.misses} "
                f"prepared={self._prepared.info().size})")


# --------------------------------------------------------------------------- #
# The default session
# --------------------------------------------------------------------------- #
_DEFAULT_SESSION: Optional[EngineSession] = None
_DEFAULT_SESSION_LOCK = threading.Lock()


def default_session() -> EngineSession:
    """The process-wide session used by the query layer.

    Wraps :data:`~repro.engine.planner.DEFAULT_PLANNER`, so the query layer
    and session users share one structure-plan cache.  This is the only
    module that manages the default planner's lifecycle.
    """
    global _DEFAULT_SESSION
    with _DEFAULT_SESSION_LOCK:
        if _DEFAULT_SESSION is None:
            _DEFAULT_SESSION = EngineSession(planner=DEFAULT_PLANNER)
        return _DEFAULT_SESSION
