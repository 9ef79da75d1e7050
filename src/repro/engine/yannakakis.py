"""End-to-end join evaluation (Yannakakis' algorithm, engine edition).

The evaluator realises the paper's Section 7 payoff: for an acyclic schema,
"join the objects" can be processed with intermediates bounded by input +
output rather than by the worst intermediate a naive left-deep plan builds.
Given the plan a :class:`~repro.engine.session.PreparedQuery` resolved (its
only caller), the phases are

1. **encode** — one column block per join-tree vertex (cached per relation);
2. **reduce** — run the plan's full reducer (whole-block semijoins,
   leaf-to-root then root-to-leaf), leaving no dangling tuples;
3. **fold** — fold children into parents bottom-up along the join tree with
   the projection onto (output attributes ∪ live separators) *fused into*
   every join, so dead attributes are never materialised;
4. **decode** — the answer becomes a relation only at the boundary (or not
   at all under ``decode="block"``).

A cyclic schema needs the paper's "additional semantics" first: a
:class:`~repro.engine.cyclic.plans.CyclicExecutionPlan` adds one
**materialise** step in front (:mod:`repro.engine.cyclic.executor`), and the
same four phases then run over the cluster blocks of its acyclic quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import FrozenSet, Optional, Sequence, Tuple, Union

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
from .cyclic.executor import _WarmPrepare, _materialise_clusters
from .cyclic.plans import CyclicEngineStatistics, CyclicExecutionPlan
from .deadline import check_deadline
from .planner import AnnotatedPlan, EngineStatistics, ExecutionPlan
from .reducer import ReductionTrace
from ..telemetry.tracing import current_tracer

__all__ = ["DECODE_MODES", "EngineResult"]

#: How results cross the engine boundary: ``"rows"`` decodes to a
#: :class:`Relation` eagerly (the default); ``"block"`` hands back the
#: columnar result block and defers decoding until someone asks.
DECODE_MODES = ("rows", "block")


def decode_result_block(block: ColumnBlock, name: str, decode: str,
                        backend_name: str) -> Tuple[Optional[Relation], float]:
    """The decode step the evaluator ends on: ``(relation, seconds)``.

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


@dataclass(frozen=True)
class EngineResult:
    """The engine's answer plus the plan that produced it and its accounting.

    ``plan`` is the structure plan that ran: an :class:`ExecutionPlan`, or a
    :class:`~repro.engine.cyclic.plans.CyclicExecutionPlan` whose
    ``statistics`` are then :class:`CyclicEngineStatistics`.  ``annotated``
    is the cost annotation that ordered the run (the quotient's, for a
    cyclic plan), ``None`` for a static run.

    Under ``decode="rows"`` (the default) ``relation`` is the decoded answer,
    built eagerly inside the call, and ``block`` additionally exposes the
    typed result block.  Under ``decode="block"`` the engine builds no rows:
    ``relation`` is ``None``, ``block`` is the answer
    (:meth:`ColumnBlock.wire_payload` serialises it without building a
    relation — the query service's wire path) and :meth:`decoded` materialises the
    relation on first request (memoised on the block).
    """

    relation: Optional[Relation]
    plan: Union[ExecutionPlan, CyclicExecutionPlan]
    statistics: EngineStatistics
    block: ColumnBlock
    annotated: Optional[AnnotatedPlan] = None
    result_name: str = "yannakakis"

    def decoded(self) -> Relation:
        """The answer as a :class:`Relation`; a deferred block decodes (memoised)."""
        if self.relation is not None:
            return self.relation
        return self.block.to_relation(self.result_name)


def _evaluate_bound(relations: Sequence[Relation],
                    wanted: Optional[FrozenSet[Attribute]],
                    plan: Union[ExecutionPlan, AnnotatedPlan, CyclicExecutionPlan],
                    *, catalog: Optional[StatisticsCatalog], name: str,
                    check_reduction: bool, cluster_row_bound: Optional[int],
                    column_backend: Optional[str], decode: str,
                    warm: Optional[_WarmPrepare]) -> EngineResult:
    """Run ``plan`` over ``relations``: (materialise,) encode, reduce, fold, decode.

    Builds no hypergraph and computes no fingerprint: the caller
    (:class:`~repro.engine.session.PreparedQuery`, which checks both once
    per binding) vouches that ``plan`` was compiled for the relations'
    schema and that ``wanted`` lies within it.  ``catalog`` is the binding's
    statistics catalog, present exactly when the run is adaptive: an
    :class:`AnnotatedPlan` runs with its cost-ordered reducer,
    cardinality-chosen root and estimated-smallest-first fold order; a
    cyclic plan orders its intra-cluster joins by the catalog and annotates
    its quotient with an exact catalog of the materialised clusters.  The
    answer is always the static run's.

    A :class:`CyclicExecutionPlan` branches only where it adds something:
    the ``prepare`` span's ``clusters``, the materialise step (capped by
    ``cluster_row_bound``, memoised on the binding's ``warm``) and the
    cluster statistics.  Everything else — the backend scope, the
    column-cache window, encode, reduce, fold and decode — is one run.
    """
    tracer = current_tracer()
    cyclic = plan if isinstance(plan, CyclicExecutionPlan) else None
    adaptive = catalog is not None
    annotated: Optional[AnnotatedPlan] = None
    prepare_span = tracer.span("prepare")
    prepare_started = perf_counter()
    with prepare_span:
        if isinstance(plan, AnnotatedPlan):
            annotated = plan
            plan = annotated.structure
        if prepare_span.is_recording:
            prepare_span.set("kind", "acyclic" if cyclic is None else "cyclic")
            prepare_span.set("plan_cache_hit", True)
            prepare_span.set("adaptive", adaptive)
            if cyclic is not None:
                prepare_span.set("clusters", len(cyclic.clusters))
    prepare_seconds = perf_counter() - prepare_started
    check_deadline("encode" if cyclic is None else "materialise")

    # Encode once (cached per relation) — or take the materialised cluster
    # blocks as they are, with no decode / re-encode round trip — reduce and
    # join whole blocks, and decode only the final result, or not at all
    # under decode="block".
    tree_plan = plan if cyclic is None else cyclic.inner
    inputs: Sequence = relations
    schemes = materialised = None
    trace = ReductionTrace()
    backend = resolve_column_backend(column_backend)
    column_before = column_cache_info()
    with use_column_backend(backend):
        if cyclic is not None:
            (materialised, annotated, estimated_cluster_sizes,
             materialise_seconds, annotate_seconds) = _materialise_clusters(
                cyclic, relations, wanted, catalog=catalog,
                cluster_row_bound=cluster_row_bound, warm=warm,
                backend_name=backend.name)
            # The quotient-level annotation is planning work, so its time
            # counts toward the prepare phase.
            prepare_seconds += annotate_seconds
            inputs, schemes = materialised.blocks, materialised.schemes
        encode_started = perf_counter()
        blocks = vertex_blocks(inputs, tree_plan.vertices, schemes)
        encode_seconds = perf_counter() - encode_started
        check_deadline("reduce")
        # The fold returns the canonical result column order, so the answer
        # is deterministic across plans.
        result_block, intermediates, physical_seconds = run_columnar_plan(
            tree_plan, annotated, blocks, wanted,
            trace=trace, check_reduction=check_reduction)
        check_deadline("decode")
        relation, decode_seconds = decode_result_block(
            result_block, name, decode, backend.name)
    column_after = column_cache_info()

    phase_times = [("prepare", prepare_seconds)]
    estimated = (annotated.annotation.estimated_intermediate_sizes
                 if annotated is not None else ())
    statistics_type, plan_name, cluster_fields = \
        EngineStatistics, "engine-yannakakis", {}
    if cyclic is not None:
        phase_times.append(("materialise", materialise_seconds))
        # Intra-cluster joins come first, aligned step for step with their
        # estimates.
        intermediates = materialised.intermediate_sizes + intermediates
        estimated = materialised.estimated_intermediate_sizes + estimated
        statistics_type, plan_name = CyclicEngineStatistics, "engine-cyclic"
        cluster_fields = dict(
            cluster_sizes=materialised.cluster_sizes,
            cluster_widths=tuple(cluster.width for cluster in cyclic.clusters),
            estimated_cluster_sizes=estimated_cluster_sizes)
    phase_times += [("encode", encode_seconds),
                    ("reduce", physical_seconds["reduce"]),
                    ("fold", physical_seconds["fold"]),
                    ("decode", decode_seconds)]
    statistics = statistics_type(
        plan_name=f"{plan_name}-adaptive" if adaptive else plan_name,
        input_sizes=tuple(len(relation_) for relation_ in relations),
        intermediate_sizes=intermediates,
        output_size=len(relation) if relation is not None else len(result_block),
        semijoin_steps=trace.steps_run,
        rows_removed_by_reduction=trace.rows_removed,
        reduced_sizes=trace.sizes_after,
        plan_cache_hit=True,
        index_cache_hits=column_after["hits"] - column_before["hits"],
        index_cache_misses=column_after["misses"] - column_before["misses"],
        column_backend=backend.name,
        adaptive=adaptive,
        estimated_intermediate_sizes=estimated,
        estimated_output_size=(annotated.annotation.estimated_output_size
                               if annotated is not None else None),
        phase_times=tuple(phase_times),
        **cluster_fields,
    )
    return EngineResult(relation=relation, plan=plan, statistics=statistics,
                        annotated=annotated, block=result_block,
                        result_name=name)
