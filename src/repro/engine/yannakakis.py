"""End-to-end acyclic join evaluation (Yannakakis' algorithm, engine edition).

The evaluator realises the paper's Section 7 payoff: for an acyclic schema,
"join the objects" can be processed with intermediates bounded by input +
output rather than by the worst intermediate a naive left-deep plan builds.
Given the :class:`~repro.engine.planner.ExecutionPlan` a
:class:`~repro.engine.session.PreparedQuery` resolved (its only caller),
the phases are

1. **reduce** — run the plan's full reducer (whole-block semijoins,
   leaf-to-root then root-to-leaf), leaving no dangling tuples;
2. **join** — fold children into parents bottom-up along the join tree with
   the projection onto (output attributes ∪ live separators) *fused into*
   every join, so dead attributes are never materialised.

Relations are encoded into cached column blocks once, every phase runs on
blocks, and the answer is decoded to a relation only at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import FrozenSet, Optional, Sequence, Tuple, Union

from ..relational.relation import Relation
from ..relational.schema import Attribute
from .columnar import (
    ColumnBlock,
    column_cache_info,
    resolve_column_backend,
    use_column_backend,
)
from .columnar.executor import run_columnar_plan, vertex_blocks
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
    (:meth:`ColumnBlock.wire_payload` serialises it without building a
    relation — the query service's wire path) and :meth:`decoded` materialises the
    relation on first request (memoised on the block).
    """

    relation: Optional[Relation]
    plan: ExecutionPlan
    statistics: EngineStatistics
    block: ColumnBlock
    annotated: Optional[AnnotatedPlan] = None
    result_name: str = "yannakakis"


def _evaluate_bound(relations: Sequence[Relation],
                    wanted: Optional[FrozenSet[Attribute]],
                    plan: Union[ExecutionPlan, AnnotatedPlan], *,
                    name: str, check_reduction: bool,
                    column_backend: Optional[str], decode: str) -> EngineResult:
    """Run ``plan`` over ``relations``: encode, reduce, fold and decode.

    Builds no hypergraph and computes no fingerprint: the caller
    (:class:`~repro.engine.session.PreparedQuery`, which checks both once
    per binding) vouches that ``plan`` was compiled for the relations'
    schema and that ``wanted`` lies within it.  An :class:`AnnotatedPlan`
    runs adaptively: cost-ordered reducer, cardinality-chosen root and
    estimated-smallest-first fold order; the answer is the static run's.
    """
    tracer = current_tracer()
    annotated: Optional[AnnotatedPlan] = None
    prepare_span = tracer.span("prepare")
    prepare_started = perf_counter()
    with prepare_span:
        if isinstance(plan, AnnotatedPlan):
            annotated = plan
            plan = annotated.structure
        if prepare_span.is_recording:
            prepare_span.set("kind", "acyclic")
            prepare_span.set("plan_cache_hit", True)
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
        plan_cache_hit=True,
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
