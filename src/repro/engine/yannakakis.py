"""End-to-end acyclic join evaluation (Yannakakis' algorithm, engine edition).

The evaluator realises the paper's Section 7 payoff: for an acyclic schema,
"join the objects" can be processed with intermediates bounded by input +
output rather than by the worst intermediate a naive left-deep plan builds.
The phases are

1. **plan** — fetch (or compile) the :class:`~repro.engine.planner.ExecutionPlan`
   for the schema's hypergraph from the planner's LRU cache;
2. **reduce** — run the plan's full reducer (indexed semijoins, leaf-to-root
   then root-to-leaf), leaving no dangling tuples;
3. **join** — fold children into parents bottom-up along the join tree with
   the projection onto (output attributes ∪ live separators) *fused into*
   every join, so dead attributes are never materialised.

Both a sequence of relations (e.g. a conjunctive query's atom relations) and
a whole :class:`~repro.relational.database.Database` can be evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple, Union

from ..core.hypergraph import Edge, Hypergraph
from ..core.nodes import sorted_nodes
from ..exceptions import SchemaError
from ..relational.database import Database
from ..relational.relation import Relation
from ..relational.schema import Attribute, RelationSchema
from .catalog import StatisticsCatalog
from .columnar import (
    ColumnBlock,
    column_cache_info,
    resolve_column_backend,
    resolve_execution_mode,
    use_column_backend,
)
from .columnar.executor import run_columnar_plan, vertex_blocks
from .deadline import check_deadline
from .fold import fold_join_tree
from .indexes import index_cache_info
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
from .semijoin import merge_relations_by_scheme, natural_join_indexed
from ..telemetry.tracing import current_tracer

__all__ = ["DECODE_MODES", "EngineResult", "evaluate", "evaluate_database"]

#: How results cross the engine boundary: ``"rows"`` decodes to a
#: :class:`Relation` eagerly (the default); ``"block"`` hands back the
#: columnar result block and defers decoding until someone asks.
DECODE_MODES = ("rows", "block")


def resolve_decode_mode(decode: str, execution_mode: str) -> str:
    """Validate a decode mode against the physical mode actually running."""
    if decode not in DECODE_MODES:
        raise ValueError(f"unknown decode mode {decode!r}; "
                         f"expected one of {DECODE_MODES}")
    if decode == "block" and execution_mode != "columnar":
        raise ValueError('decode="block" requires the columnar execution '
                         f'mode, not {execution_mode!r}')
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
            span.set("mode", "columnar")
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
        if self.block is None:
            raise SchemaError("this result holds neither a decoded relation "
                              "nor a column block")
        return self.block.to_relation(self.result_name)


@dataclass(frozen=True)
class EngineResult(DecodedResult):
    """The engine's answer plus the plan that produced it and its accounting.

    Under ``decode="rows"`` (the default) ``relation`` is the decoded answer,
    built eagerly inside the call, and, in columnar mode, ``block``
    additionally exposes the typed result block.  Under ``decode="block"``
    the engine builds no rows: ``relation`` is ``None``, ``block`` is the
    answer (:meth:`ColumnBlock.iter_rows` walks it without building a
    relation — the query service's wire path) and :meth:`decoded`
    materialises the relation on first request (memoised on the block).  The
    one exception is a sharded run whose shards merge as rows (process
    executor, row mode, 0-ary output): it already holds the merged relation,
    so it carries that and no block under either decode mode.
    """

    relation: Optional[Relation]
    plan: ExecutionPlan
    statistics: EngineStatistics
    annotated: Optional[AnnotatedPlan] = None
    block: Optional[ColumnBlock] = None
    result_name: str = "yannakakis"


def _SKIP_CHECK(relations, rooted) -> bool:
    """The no-op proof-of-reduction hook used when ``check_reduction`` is off."""
    return True


def _project_validated(relation: Relation, keep: FrozenSet[Attribute],
                       name: Optional[str] = None) -> Relation:
    """Project a relation onto ``keep`` without re-validating rows (hot path)."""
    order = relation.schema.project_order(keep & relation.schema.attribute_set)
    return Relation.from_valid_rows(
        RelationSchema.of(name or relation.name, order),
        frozenset(row.project(order) for row in relation.rows))


def _vertex_relations(relations: Sequence[Relation],
                      vertices: Tuple[Edge, ...]) -> Dict[Edge, Relation]:
    """One relation per join-tree vertex (same-scheme relations intersected)."""
    merged = merge_relations_by_scheme(relations)
    result: Dict[Edge, Relation] = {}
    for vertex in vertices:
        combined = merged.get(vertex)
        if combined is None:
            raise SchemaError("join-tree vertex without a matching relation")
        result[vertex] = combined
    return result


def evaluate(relations: Sequence[Relation],
             output_attributes: Optional[Iterable[Attribute]] = None, *,
             planner: Optional[QueryPlanner] = None,
             root: Optional[Edge] = None,
             name: str = "yannakakis",
             check_reduction: bool = False,
             plan: Optional[Union[ExecutionPlan, AnnotatedPlan]] = None,
             catalog: Optional[StatisticsCatalog] = None,
             execution_mode: Optional[str] = None,
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

    ``execution_mode`` selects the physical layer: ``"columnar"`` (the
    process default) runs the reducer and the join fold on whole
    :class:`~repro.engine.columnar.ColumnBlock` values and decodes to a
    :class:`Relation` only at the result boundary; ``"row"`` is the original
    row-at-a-time reference implementation.  Results and all logical
    accounting are byte-identical across modes.

    ``column_backend`` pins the columnar compute backend (``"array"`` or
    ``"numpy"``) for this evaluation; ``None`` keeps the ambient default.
    ``decode="block"`` (columnar only) builds no rows — the ``decode`` span
    still opens, ``deferred``, with the output count — and returns a result
    whose ``relation`` is materialised lazily via :meth:`EngineResult.decoded`.
    """
    if not relations:
        raise SchemaError("the engine needs at least one relation to evaluate")
    mode = resolve_execution_mode(execution_mode)
    decode = resolve_decode_mode(decode, mode)
    active_planner = planner if planner is not None else DEFAULT_PLANNER
    hypergraph = Hypergraph([relation.schema.attribute_set for relation in relations])
    universe = hypergraph.nodes
    wanted: Optional[FrozenSet[Attribute]] = (
        frozenset(output_attributes) if output_attributes is not None else None)
    if wanted is not None and not wanted <= universe:
        missing = wanted - universe
        raise SchemaError(f"output attributes {sorted_nodes(missing)} are not in the schema")

    tracer = current_tracer()
    annotated: Optional[AnnotatedPlan] = None
    prepare_span = tracer.span("prepare")
    prepare_started = perf_counter()
    with prepare_span:
        if plan is None:
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
            if plan.fingerprint != schema_fingerprint(hypergraph):
                raise SchemaError("the supplied execution plan was compiled for "
                                  "a different schema fingerprint")
            plan_cache_hit = True
        if prepare_span.is_recording:
            prepare_span.set("kind", "acyclic")
            prepare_span.set("mode", mode)
            prepare_span.set("plan_cache_hit", plan_cache_hit)
            prepare_span.set("adaptive", annotated is not None)
    prepare_seconds = perf_counter() - prepare_started
    check_deadline("encode")

    trace = ReductionTrace()
    result_block: Optional[ColumnBlock] = None
    backend_name: Optional[str] = None
    if mode == "columnar":
        # Columnar physical layer: encode once (cached per relation), reduce
        # and join whole blocks, decode only the final result — or not at
        # all under decode="block".
        backend = resolve_column_backend(column_backend)
        backend_name = backend.name
        column_before = column_cache_info()
        with use_column_backend(backend):
            encode_started = perf_counter()
            blocks = vertex_blocks(relations, plan.vertices)
            encode_seconds = perf_counter() - encode_started
            check_deadline("reduce")
            result_block, intermediate_sizes, physical_seconds = run_columnar_plan(
                plan, annotated, blocks, wanted,
                trace=trace, check_reduction=check_reduction)
            # Canonical result column order: the fold's output order is
            # annotation-dependent, so the boundary sorts it — making the
            # order deterministic across plans, modes and shards.
            result_block = result_block.with_column_order(
                sorted_nodes(result_block.attributes))
            check_deadline("decode")
            result, decode_seconds = decode_result_block(
                result_block, name, decode, backend_name)
        intermediates = list(intermediate_sizes)
        column_after = column_cache_info()
        cache_hits = column_after["hits"] - column_before["hits"]
        cache_misses = column_after["misses"] - column_before["misses"]
    else:
        index_before = index_cache_info()
        encode_span = tracer.span("encode")
        encode_started = perf_counter()
        with encode_span:
            vertex_relations = _vertex_relations(relations, plan.vertices)
            if encode_span.is_recording:
                encode_span.set("mode", mode)
                encode_span.set("vertices", len(vertex_relations))
                encode_span.set("input_rows",
                                sum(len(r) for r in vertex_relations.values()))
        encode_seconds = perf_counter() - encode_started
        check_deadline("reduce")

        # Phase 2: full reduction (the cost-ordered program when annotated).
        reducer = annotated.reducer if annotated is not None else plan.reducer
        reduce_started = perf_counter()
        reduced = reducer.run(vertex_relations, trace=trace,
                              check_hook=None if check_reduction else _SKIP_CHECK)
        reduce_seconds = perf_counter() - reduce_started
        check_deadline("fold")

        # Phase 3: the shared bottom-up join fold with the row operators
        # plugged in (fused projection lives in fold_join_tree).
        fold_started = perf_counter()
        result, intermediates = fold_join_tree(
            plan.rooted, reduced, wanted,
            order_children=(annotated.order_children if annotated is not None
                            else lambda vertex, children: children),
            join=lambda left, right, keep: natural_join_indexed(left, right,
                                                                project_onto=keep),
            project=_project_validated,
            attributes_of=lambda relation: relation.schema.attribute_set)
        fold_seconds = perf_counter() - fold_started
        physical_seconds = {"reduce": reduce_seconds, "fold": fold_seconds}
        check_deadline("decode")

        decode_span = tracer.span("decode")
        decode_started = perf_counter()
        with decode_span:
            # Same canonical column order as the columnar boundary (rows are
            # attribute-order-insensitive, so only the schema is rebuilt).
            ordered = tuple(sorted_nodes(result.schema.attributes))
            if result.name != name or result.schema.attributes != ordered:
                result = Relation.from_valid_rows(
                    RelationSchema.of(name, ordered), result.rows)
            if decode_span.is_recording:
                decode_span.set("mode", mode)
                decode_span.set("output_rows", len(result))
        decode_seconds = perf_counter() - decode_started

        index_after = index_cache_info()
        cache_hits = index_after["hits"] - index_before["hits"]
        cache_misses = index_after["misses"] - index_before["misses"]

    phase_times = (("prepare", prepare_seconds),
                   ("encode", encode_seconds),
                   ("reduce", physical_seconds["reduce"]),
                   ("fold", physical_seconds["fold"]),
                   ("decode", decode_seconds))
    statistics = EngineStatistics(
        plan_name="engine-yannakakis-adaptive" if annotated is not None
        else "engine-yannakakis",
        input_sizes=tuple(len(relation) for relation in relations),
        intermediate_sizes=tuple(intermediates),
        output_size=len(result) if result is not None else len(result_block),
        semijoin_steps=trace.steps_run,
        rows_removed_by_reduction=trace.rows_removed,
        reduced_sizes=trace.sizes_after,
        plan_cache_hit=plan_cache_hit,
        index_cache_hits=cache_hits,
        index_cache_misses=cache_misses,
        execution_mode=mode,
        column_backend=backend_name,
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
                      execution_mode: Optional[str] = None,
                      column_backend: Optional[str] = None,
                      decode: str = "rows") -> EngineResult:
    """Evaluate a database's universal join (optionally projected) via the engine.

    The engine counterpart of :func:`repro.relational.yannakakis.yannakakis_join`;
    results agree, but this path reuses cached plans and hash indexes.
    ``adaptive=True`` (or an explicit ``catalog``) runs the cardinality-aware
    plan: the database's statistics catalog annotates the cached structure
    plan with a data-dependent root and fold order.
    """
    if adaptive and catalog is None:
        catalog = database.statistics_catalog()
    return evaluate(database.relations(), output_attributes, planner=planner,
                    root=root, name=name, check_reduction=check_reduction,
                    catalog=catalog, execution_mode=execution_mode,
                    column_backend=column_backend, decode=decode)
