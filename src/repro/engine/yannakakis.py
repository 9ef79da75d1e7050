"""End-to-end acyclic join evaluation (Yannakakis' algorithm, engine edition).

The evaluator realises the paper's Section 7 payoff: for an acyclic schema,
"join the objects" can be processed with intermediates bounded by input +
output rather than by the worst intermediate a naive left-deep plan builds.
The phases are

1. **plan** — fetch (or compile) the :class:`~repro.engine.planner.ExecutionPlan`
   for the schema's hypergraph from the planner's LRU cache;
2. **reduce** — run the plan's full reducer (whole-block semijoins,
   leaf-to-root then root-to-leaf), leaving no dangling tuples;
3. **join** — fold children into parents bottom-up along the join tree with
   the projection onto (output attributes ∪ live separators) *fused into*
   every join, so dead attributes are never materialised.

Relations are encoded into cached column blocks once, every phase runs on
blocks, and the answer is decoded to a relation only at the boundary.

Both a sequence of relations (e.g. a conjunctive query's atom relations) and
a whole :class:`~repro.relational.database.Database` can be evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple, Union

from ..core.hypergraph import Edge, Hypergraph
from ..core.nodes import sorted_nodes
from ..exceptions import SchemaError
from ..relational.database import Database
from ..relational.relation import Relation
from ..relational.schema import Attribute
from .catalog import StatisticsCatalog
from .columnar import (
    ColumnBlock,
    column_cache_info,
    resolve_column_backend,
    use_column_backend,
)
from .columnar.executor import run_columnar_plan, vertex_blocks
from .deadline import check_deadline
from .planner import (
    DEFAULT_PLANNER,
    AnnotatedPlan,
    EngineStatistics,
    ExecutionPlan,
    QueryPlanner,
    annotate_plan,
    schema_fingerprint,
)
from .reducer import ReductionTrace
from ..telemetry.tracing import current_tracer

__all__ = ["DECODE_MODES", "EngineResult", "evaluate", "evaluate_database"]

#: How results cross the engine boundary: ``"rows"`` decodes to a
#: :class:`Relation` eagerly (the default); ``"block"`` hands back the
#: columnar result block and defers decoding until someone asks.
DECODE_MODES = ("rows", "block")


def resolve_decode_mode(decode: str) -> str:
    """Validate a decode mode."""
    if decode not in DECODE_MODES:
        raise ValueError(f"unknown decode mode {decode!r}; "
                         f"expected one of {DECODE_MODES}")
    return decode


def decode_result_block(block: ColumnBlock, name: str, decode: str,
                        backend_name: str) -> Tuple[Optional[Relation], float]:
    """The decode step both columnar evaluators end on: ``(relation, seconds)``.

    ``decode="rows"`` builds the relation here, eagerly
    (:meth:`ColumnBlock.to_relation`); ``decode="block"`` builds no rows and
    returns ``None``.  The ``decode`` span opens either way — EXPLAIN ANALYZE
    reads the output actual from its ``output_rows`` — a run that built
    no rows marks it ``deferred``, and ``memo_hit`` says whether the result
    storage already held the decoded relation.
    """
    span = current_tracer().span("decode")
    started = perf_counter()
    with span:
        memo_hit = span.is_recording and decode == "rows" \
            and block.peek_relation(name) is not None
        relation = block.to_relation(name) if decode == "rows" else None
        if span.is_recording:
            span.set("backend", backend_name)
            span.set("output_rows",
                     len(block) if relation is None else len(relation))
            span.set("memo_hit", memo_hit)
            if relation is None:
                span.set("deferred", True)
    return relation, perf_counter() - started


class DecodedResult:
    """Both results' ``decoded()`` (a field-less mixin over their fields)."""

    def decoded(self) -> Relation:
        """The answer as a :class:`Relation`; a deferred block decodes (memoised)."""
        if self.relation is not None:
            return self.relation
        return self.block.to_relation(self.result_name)


@dataclass(frozen=True)
class EngineResult(DecodedResult):
    """The engine's answer plus the plan that produced it and its accounting.

    Under ``decode="rows"`` (the default) ``relation`` is the decoded answer,
    built eagerly inside the call, and ``block`` additionally exposes the
    typed result block.  Under ``decode="block"`` the engine builds no rows:
    ``relation`` is ``None``, ``block`` is the answer
    (:meth:`ColumnBlock.iter_rows` walks it without building a relation —
    the query service's wire path) and :meth:`decoded` materialises the
    relation on first request (memoised on the block).
    """

    relation: Optional[Relation]
    plan: ExecutionPlan
    statistics: EngineStatistics
    block: ColumnBlock
    annotated: Optional[AnnotatedPlan] = None
    result_name: str = "yannakakis"


def validated_outputs(output_attributes: Optional[Iterable[Attribute]],
                      universe: FrozenSet[Attribute]
                      ) -> Optional[FrozenSet[Attribute]]:
    """The requested outputs as a frozenset; :class:`SchemaError` outside ``universe``."""
    if output_attributes is None:
        return None
    wanted = frozenset(output_attributes)
    if not wanted <= universe:
        raise SchemaError(f"output attributes {sorted_nodes(wanted - universe)} "
                          "are not in the schema")
    return wanted


def evaluate(relations: Sequence[Relation],
             output_attributes: Optional[Iterable[Attribute]] = None, *,
             planner: Optional[QueryPlanner] = None,
             root: Optional[Edge] = None,
             name: str = "yannakakis",
             check_reduction: bool = False,
             plan: Optional[Union[ExecutionPlan, AnnotatedPlan]] = None,
             catalog: Optional[StatisticsCatalog] = None,
             column_backend: Optional[str] = None,
             decode: str = "rows") -> EngineResult:
    """Evaluate the natural join of ``relations`` (optionally projected) via the engine.

    Raises :class:`~repro.exceptions.CyclicHypergraphError` when the schemas'
    hypergraph is cyclic, and :class:`~repro.exceptions.SchemaError` when an
    output attribute is not in scope.  ``check_reduction=True`` runs the
    reducer's proof-of-reduction hook after the semijoin passes (two extra
    semijoin scans per tree edge) — a debug/audit aid, off by default so the
    production path pays only the reducer itself.  ``plan`` supplies an
    already-compiled plan (e.g. the one a :class:`CyclicExecutionPlan`
    embeds) — plain or annotated — bypassing the planner lookup entirely;
    its fingerprint must match the relations' schema.

    ``catalog`` switches on adaptive execution: the structure plan is
    composed with a :class:`~repro.engine.catalog.CostAnnotation` and the
    run uses the cost-ordered reducer, the cardinality-chosen root and the
    estimated-smallest-first child fold order.  The answer is always
    identical to the static run — only the intermediate sizes (and the
    estimated-vs-actual statistics columns) change.

    ``column_backend`` pins the columnar compute backend (``"array"`` or
    ``"numpy"``) for this evaluation; ``None`` keeps the ambient default.
    ``decode="block"`` builds no rows — the ``decode`` span still opens,
    ``deferred``, with the output count — and returns a result whose
    ``relation`` is materialised lazily via :meth:`EngineResult.decoded`.

    Every call builds the relations' hypergraph and checks the outputs and
    the plan's fingerprint against it.  A
    :class:`~repro.engine.session.PreparedQuery` makes those checks once per
    database binding and runs the same body without them.
    """
    if not relations:
        raise SchemaError("the engine needs at least one relation to evaluate")
    decode = resolve_decode_mode(decode)
    hypergraph = Hypergraph([relation.schema.attribute_set for relation in relations])
    wanted = validated_outputs(output_attributes, hypergraph.nodes)
    if plan is not None and plan.fingerprint != schema_fingerprint(hypergraph):
        raise SchemaError("the supplied execution plan was compiled for "
                          "a different schema fingerprint")
    return _evaluate_bound(relations, wanted, plan, hypergraph=hypergraph,
                           planner=planner, root=root, catalog=catalog,
                           name=name, check_reduction=check_reduction,
                           column_backend=column_backend, decode=decode)


def _evaluate_bound(relations: Sequence[Relation],
                    wanted: Optional[FrozenSet[Attribute]],
                    plan: Optional[Union[ExecutionPlan, AnnotatedPlan]], *,
                    hypergraph: Optional[Hypergraph] = None,
                    planner: Optional[QueryPlanner] = None,
                    root: Optional[Edge] = None,
                    catalog: Optional[StatisticsCatalog] = None,
                    name: str, check_reduction: bool,
                    column_backend: Optional[str], decode: str) -> EngineResult:
    """:func:`evaluate`'s body over inputs already checked against the plan.

    Builds no hypergraph and computes no fingerprint: the caller vouches
    that ``plan`` (when given) was compiled for the relations' schema and
    that ``wanted`` lies within it.  ``plan=None`` plans ``hypergraph``
    through ``planner`` (the public path only).
    """
    tracer = current_tracer()
    annotated: Optional[AnnotatedPlan] = None
    prepare_span = tracer.span("prepare")
    prepare_started = perf_counter()
    with prepare_span:
        if plan is None:
            active_planner = planner if planner is not None else DEFAULT_PLANNER
            # Misses, not hits: the adaptive path may serve the default-root
            # plan from cache (a hit) and still compile its re-rooted
            # structure (a miss) in the same call — only "no compilation
            # happened" counts.
            plan_misses_before = active_planner.cache_info().misses
            if catalog is not None:
                annotated = active_planner.annotate(hypergraph, catalog,
                                                    output_attributes=wanted,
                                                    root=root)
                plan = annotated.structure
            else:
                plan = active_planner.plan_for(hypergraph, root=root)
            plan_cache_hit = active_planner.cache_info().misses == plan_misses_before
        else:
            if isinstance(plan, AnnotatedPlan):
                annotated = plan
                plan = annotated.structure
            elif catalog is not None:
                annotated = annotate_plan(plan, catalog, output_attributes=wanted)
            plan_cache_hit = True
        if prepare_span.is_recording:
            prepare_span.set("kind", "acyclic")
            prepare_span.set("plan_cache_hit", plan_cache_hit)
            prepare_span.set("adaptive", annotated is not None)
    prepare_seconds = perf_counter() - prepare_started
    check_deadline("encode")

    # Encode once (cached per relation), reduce and join whole blocks,
    # decode only the final result — or not at all under decode="block".
    trace = ReductionTrace()
    backend = resolve_column_backend(column_backend)
    column_before = column_cache_info()
    with use_column_backend(backend):
        encode_started = perf_counter()
        blocks = vertex_blocks(relations, plan.vertices)
        encode_seconds = perf_counter() - encode_started
        check_deadline("reduce")
        # The fold returns the canonical result column order, so the answer
        # is deterministic across plans.
        result_block, intermediates, physical_seconds = run_columnar_plan(
            plan, annotated, blocks, wanted,
            trace=trace, check_reduction=check_reduction)
        check_deadline("decode")
        result, decode_seconds = decode_result_block(
            result_block, name, decode, backend.name)
    column_after = column_cache_info()

    phase_times = (("prepare", prepare_seconds),
                   ("encode", encode_seconds),
                   ("reduce", physical_seconds["reduce"]),
                   ("fold", physical_seconds["fold"]),
                   ("decode", decode_seconds))
    statistics = EngineStatistics(
        plan_name="engine-yannakakis-adaptive" if annotated is not None
        else "engine-yannakakis",
        input_sizes=tuple(len(relation) for relation in relations),
        intermediate_sizes=intermediates,
        output_size=len(result) if result is not None else len(result_block),
        semijoin_steps=trace.steps_run,
        rows_removed_by_reduction=trace.rows_removed,
        reduced_sizes=trace.sizes_after,
        plan_cache_hit=plan_cache_hit,
        index_cache_hits=column_after["hits"] - column_before["hits"],
        index_cache_misses=column_after["misses"] - column_before["misses"],
        column_backend=backend.name,
        adaptive=annotated is not None,
        estimated_intermediate_sizes=(
            annotated.annotation.estimated_intermediate_sizes
            if annotated is not None else ()),
        estimated_output_size=(annotated.annotation.estimated_output_size
                               if annotated is not None else None),
        phase_times=phase_times,
    )
    return EngineResult(relation=result, plan=plan, statistics=statistics,
                        annotated=annotated, block=result_block,
                        result_name=name)


def evaluate_database(database: Database,
                      output_attributes: Optional[Iterable[Attribute]] = None, *,
                      planner: Optional[QueryPlanner] = None,
                      root: Optional[Edge] = None,
                      name: str = "U",
                      check_reduction: bool = False,
                      adaptive: bool = False,
                      catalog: Optional[StatisticsCatalog] = None,
                      column_backend: Optional[str] = None,
                      decode: str = "rows") -> EngineResult:
    """Evaluate a database's universal join (optionally projected) via the engine.

    The engine counterpart of :func:`repro.relational.yannakakis.yannakakis_join`;
    results agree, but this path reuses cached plans and column blocks.
    ``adaptive=True`` (or an explicit ``catalog``) runs the cardinality-aware
    plan: the database's statistics catalog annotates the cached structure
    plan with a data-dependent root and fold order.
    """
    if adaptive and catalog is None:
        catalog = database.statistics_catalog()
    return evaluate(database.relations(), output_attributes, planner=planner,
                    root=root, name=name, check_reduction=check_reduction,
                    catalog=catalog, column_backend=column_backend,
                    decode=decode)
