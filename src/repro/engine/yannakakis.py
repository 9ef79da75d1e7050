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

A prepared query's database binding fixes everything a run reads — plan,
relations, catalog, outputs and options — so on an acyclic schema the
answer, the one connection among the outputs, is the binding's alone.  The
binding memoises its run's outcome (:class:`_WarmPrepare`), and a warm run
that finds it valid for the current interner generation and column backend
serves it: no phase span opens, no kernel runs, and the statistics say
``served``.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, FrozenSet, NamedTuple, Optional, Sequence, Tuple, Union

from ..core.hypergraph import Edge
from ..relational.relation import Relation
from ..relational.schema import Attribute
from .catalog import StatisticsCatalog
from .columnar import (
    ColumnBlock,
    current_interner,
    resolve_column_backend,
    use_column_backend,
)
from .columnar.block import _CLEAR_HOOKS, count_binding_outcome
from .columnar.executor import (
    _describe_fold,
    _describe_reduce,
    bound_program,
    run_columnar_plan,
    vertex_blocks,
)
from .cyclic.executor import _Clusters, _describe_materialise, _materialise_clusters
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
            _describe_decode(span, backend_name,
                             len(block) if relation is None else len(relation),
                             memo_hit, deferred=relation is None)
    return relation, perf_counter() - started


def _describe_decode(span, backend_name: str, output_rows: int, memo_hit: bool, *,
                     deferred: bool) -> None:
    """Set a recording ``decode`` span's attributes (EXPLAIN ANALYZE reads them)."""
    span.set("backend", backend_name)
    span.set("output_rows", output_rows)
    span.set("memo_hit", memo_hit)
    if deferred:
        span.set("deferred", True)


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


class _RunOutcome(NamedTuple):
    """One bound run's outcome, as its binding memoises it (:class:`_WarmPrepare`).

    An outcome with a ``result`` also holds ``statistics_arguments``, from
    which :func:`_served_run` builds each served statistics object with one
    constructor call, and what EXPLAIN ANALYZE renders of a served run
    (:func:`_served_phase_attributes`).
    """

    #: The interner generation the run's blocks were encoded in.
    interner: Any
    #: The column backend the run computed on.
    backend: Any
    #: A cyclic run's materialised clusters (``None`` on the acyclic path).
    clusters: Optional[_Clusters]
    #: The run's answer; ``None`` while a cyclic run has only materialised.
    result: Optional[EngineResult] = None
    #: The reducer's vertices and their sizes entering it, in slot order.
    vertices: Tuple[Edge, ...] = ()
    sizes_before: Tuple[int, ...] = ()
    #: The fold's own intermediate sizes.
    fold_intermediates: Tuple[int, ...] = ()
    #: The served statistics' constructor arguments: the run's own, with
    #: the index lookups zeroed and ``served`` set, and all but
    #: ``phase_times``.
    statistics_arguments: Optional[Dict[str, Any]] = None


class _WarmPrepare:
    """A database binding's memo of its bound run.

    A :class:`~repro.engine.session.PreparedQuery`'s binding fixes a run's
    plan, relations, catalog, outputs and options, so ``outcome`` — the last
    run's :class:`_RunOutcome` — answers every later run on the same
    interner generation and column backend; the memo lives and dies with
    the binding, and :func:`~repro.engine.columnar.clear_column_caches`
    drops it.  A cyclic run stores its clusters as soon as they are
    materialised, before the later phases' deadline checks, so a run that
    then times out, or one on another backend, reuses the cluster blocks,
    their estimates and the quotient annotation.  ``outcome`` is swapped
    whole, so racing runs store equivalent outcomes and the last write wins,
    matching the storage-cache contract in :mod:`repro.engine.columnar.block`.
    """

    __slots__ = ("outcome", "__weakref__")

    def __init__(self) -> None:
        self.outcome: Optional[_RunOutcome] = None
        with _MEMOS_LOCK:
            _MEMOS.add(self)


#: Every live binding memo, so that a column-cache clear can drop the
#: outcomes of the generation it retires (:func:`_drop_outcomes`).
_MEMOS: "weakref.WeakSet[_WarmPrepare]" = weakref.WeakSet()
_MEMOS_LOCK = threading.Lock()


def _drop_outcomes() -> None:
    """Drop every binding's outcome: a clear retired its interner generation."""
    with _MEMOS_LOCK:
        memos = list(_MEMOS)
    for memo in memos:
        memo.outcome = None


_CLEAR_HOOKS.append(_drop_outcomes)


def _evaluate_bound(relations: Sequence[Relation],
                    wanted: Optional[FrozenSet[Attribute]],
                    plan: Union[ExecutionPlan, AnnotatedPlan, CyclicExecutionPlan],
                    *, catalog: Optional[StatisticsCatalog], name: str,
                    check_reduction: bool, cluster_row_bound: Optional[int],
                    column_backend: Optional[str], decode: str,
                    warm: _WarmPrepare) -> EngineResult:
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

    ``warm`` is the binding's memo: when it holds an answer for the current
    interner generation and column backend, the run is served from it
    (:func:`_served_run`) after one deadline check; otherwise the run below
    stores its outcome there.

    A :class:`CyclicExecutionPlan` branches only where it adds something:
    the ``prepare`` span's ``clusters``, the materialise step (capped by
    ``cluster_row_bound``) and the cluster statistics.  Everything else —
    the backend scope, the block-lookup tally, encode, reduce, fold and
    decode — is one run.
    """
    tracer = current_tracer()
    cyclic = plan if isinstance(plan, CyclicExecutionPlan) else None
    adaptive = catalog is not None
    annotated: Optional[AnnotatedPlan] = None
    backend = resolve_column_backend(column_backend)
    interner = current_interner()
    # The binding's last outcome, if its blocks are this interner
    # generation's; it serves the run if it holds an answer computed on
    # this backend.
    previous = warm.outcome
    if previous is not None and previous.interner is not interner:
        previous = None
    outcome = previous if previous is not None and previous.result is not None \
        and previous.backend is backend else None
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
            prepare_span.set("cached", outcome is not None)
            if cyclic is not None:
                prepare_span.set("clusters", len(cyclic.clusters))
    prepare_seconds = perf_counter() - prepare_started
    check_deadline("encode" if cyclic is None else "materialise")
    count_binding_outcome(outcome is not None)
    if outcome is not None:
        return _served_run(outcome, prepare_seconds)

    # Encode once (cached per relation) — or take the materialised cluster
    # blocks as they are, with no decode / re-encode round trip — reduce and
    # join whole blocks, and decode only the final result, or not at all
    # under decode="block".
    tree_plan = plan if cyclic is None else cyclic.inner
    inputs: Sequence = relations
    schemes = clusters = None
    trace = ReductionTrace()
    # The run's own block-cache lookups, [hits, misses]: concurrent runs
    # look blocks up too, so process-wide counters cannot tell them apart.
    lookups = [0, 0]
    with use_column_backend(backend):
        if cyclic is not None:
            cached = previous.clusters if previous is not None else None
            clusters, materialise_seconds, annotate_seconds = _materialise_clusters(
                cyclic, relations, wanted, catalog=catalog,
                cluster_row_bound=cluster_row_bound, previous=cached,
                backend_name=backend.name, lookups=lookups)
            if cached is None:
                # Kept before the next deadline check, so a run that times
                # out later does not materialise again.
                warm.outcome = _RunOutcome(interner, backend, clusters)
            check_deadline("encode")
            # The quotient-level annotation is planning work, so its time
            # counts toward the prepare phase.
            prepare_seconds += annotate_seconds
            annotated = clusters.annotated
            inputs = clusters.materialised.blocks
            schemes = clusters.materialised.schemes
        encode_started = perf_counter()
        blocks = vertex_blocks(inputs, tree_plan.vertices, schemes, lookups)
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

    phase_times = [("prepare", prepare_seconds)]
    estimated = (annotated.annotation.estimated_intermediate_sizes
                 if annotated is not None else ())
    statistics_type, plan_name, cluster_fields = \
        EngineStatistics, "engine-yannakakis", {}
    fold_intermediates = intermediates
    if cyclic is not None:
        materialised = clusters.materialised
        phase_times.append(("materialise", materialise_seconds))
        # Intra-cluster joins come first, aligned step for step with their
        # estimates.
        intermediates = materialised.intermediate_sizes + intermediates
        estimated = materialised.estimated_intermediate_sizes + estimated
        statistics_type, plan_name = CyclicEngineStatistics, "engine-cyclic"
        cluster_fields = dict(
            cluster_sizes=materialised.cluster_sizes,
            cluster_widths=cyclic.cluster_widths,
            estimated_cluster_sizes=clusters.estimated_sizes)
    phase_times += [("encode", encode_seconds),
                    ("reduce", physical_seconds["reduce"]),
                    ("fold", physical_seconds["fold"]),
                    ("decode", decode_seconds)]
    arguments = dict(
        plan_name=f"{plan_name}-adaptive" if adaptive else plan_name,
        input_sizes=tuple(len(relation_) for relation_ in relations),
        intermediate_sizes=intermediates,
        output_size=len(relation) if relation is not None else len(result_block),
        semijoin_steps=trace.steps_run,
        rows_removed_by_reduction=trace.rows_removed,
        reduced_sizes=trace.sizes_after,
        plan_cache_hit=True,
        column_backend=backend.name,
        adaptive=adaptive,
        estimated_intermediate_sizes=estimated,
        estimated_output_size=(annotated.annotation.estimated_output_size
                               if annotated is not None else None),
        **cluster_fields,
    )
    statistics = statistics_type(**arguments, index_cache_hits=lookups[0],
                                 index_cache_misses=lookups[1],
                                 phase_times=tuple(phase_times))
    result = EngineResult(relation=relation, plan=plan, statistics=statistics,
                          annotated=annotated, block=result_block,
                          result_name=name)
    program = bound_program(annotated if annotated is not None else tree_plan,
                            wanted)
    # A served run looks no block up.
    arguments.update(index_cache_hits=0, index_cache_misses=0, served=True)
    warm.outcome = _RunOutcome(interner, backend, clusters, result,
                               program.reduction.vertices, trace.sizes_before,
                               fold_intermediates, arguments)
    return result


def _served_run(outcome: _RunOutcome, prepare_seconds: float) -> EngineResult:
    """Serve a bound run from its binding's memoised outcome.

    Nothing runs, so no phase span opens and the statistics' ``phase_times``
    hold only the ``prepare`` time this call measured.  The statistics are
    otherwise the outcome's run's accounting, marked ``served``, with no
    block lookup counted.  Both the statistics and the result are built by
    one constructor call each, from the outcome's resolved
    ``statistics_arguments``: a fresh, mutable statistics object per call,
    which shares only immutable values with the stored one.
    """
    result = outcome.result
    statistics = type(result.statistics)(**outcome.statistics_arguments,
                                         phase_times=(("prepare", prepare_seconds),))
    return EngineResult(relation=result.relation, plan=result.plan,
                        statistics=statistics, block=result.block,
                        annotated=result.annotated,
                        result_name=result.result_name)


class _Attributes(dict):
    """A span stand-in for the ``_describe_*`` helpers: keeps what they set."""

    set = dict.__setitem__


def _served_phase_attributes(outcome: _RunOutcome) -> Dict[str, Dict[str, Any]]:
    """The phase spans' attributes EXPLAIN ANALYZE reads, from the stored run.

    A served run opened no phase span, so its analysis reads them here.
    """
    result = outcome.result
    statistics = result.statistics
    phases = {phase: _Attributes() for phase in ("reduce", "fold", "decode")}
    if outcome.clusters is not None:
        phases["materialise"] = _Attributes()
        _describe_materialise(phases["materialise"], result.plan,
                              outcome.clusters.materialised,
                              statistics.column_backend, cached=True)
    _describe_reduce(phases["reduce"], outcome.vertices, outcome.sizes_before,
                     statistics.reduced_sizes, statistics.rows_removed_by_reduction,
                     statistics.semijoin_steps)
    _describe_fold(phases["fold"], outcome.fold_intermediates, len(result.block))
    _describe_decode(phases["decode"], statistics.column_backend,
                     statistics.output_size, result.relation is not None,
                     deferred=result.relation is None)
    return phases
