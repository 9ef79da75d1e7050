"""End-to-end cyclic join evaluation: materialise clusters, reduce the quotient, join.

The cyclic analogue of :mod:`repro.engine.yannakakis`.  Given the
:class:`CyclicExecutionPlan` a :class:`~repro.engine.session.PreparedQuery`
resolved (its only caller; cover search ran once per schema fingerprint),
the phases are

1. **materialise** — evaluate every non-trivial cluster with a bounded,
   greedily ordered nested-loop join, projected onto what the cluster
   exports: the requested outputs and the attributes it shares with
   another cluster (:func:`~repro.engine.cyclic.quotient.materialise_cluster_blocks`);
2. **reduce + join** — feed the cluster blocks to the acyclic pipeline
   (:func:`~repro.engine.columnar.executor.run_columnar_plan`): the
   quotient is acyclic by construction, so the full reducer removes
   every dangling cluster tuple and the bottom-up join with fused projection
   keeps the quotient-level intermediates inside the output + reduced-input
   bound.

Only the intra-cluster joins can exceed that bound, and they are confined to
the cyclic cores — exactly the paper's "additional semantics … must be
applied" boundary made operational.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, FrozenSet, Optional, Sequence, Tuple

from ...core.nodes import sorted_nodes
from ...relational.relation import Relation
from ...relational.schema import Attribute
from ..catalog import StatisticsCatalog
from ..columnar import (
    ColumnBlock,
    column_cache_info,
    current_interner,
    resolve_column_backend,
    use_column_backend,
)
from ..columnar.executor import catalog_from_blocks, run_columnar_plan, vertex_blocks
from ..deadline import check_deadline
from ..planner import annotate_plan
from ..reducer import ReductionTrace
from ..yannakakis import DecodedResult, decode_result_block
from ...telemetry.tracing import current_tracer
from .plans import CyclicEngineStatistics, CyclicExecutionPlan
from .quotient import materialise_cluster_blocks

__all__ = ["CyclicEngineResult"]


# --------------------------------------------------------------------------- #
# Warm-prepare memoisation
# --------------------------------------------------------------------------- #
class _WarmPrepare:
    """The prepare-phase artefacts of one database binding, memoised.

    A warm cyclic run re-executes the same plan over the same relations,
    catalog and outputs — a :class:`~repro.engine.session.PreparedQuery`'s
    binding fixes all four — yet would re-derive three artefacts every time:
    the per-cluster cardinality estimates, the materialised cluster blocks
    and the quotient-level cost annotation.  The binding owns one of these
    memos, so it lives and dies with its database.  Only the row bound and
    the interner generation are checked on a hit.  Fields hold tuples so a
    racing rebuild swaps atomically — equivalent values, last write wins,
    matching the storage-cache contract in :mod:`repro.engine.columnar.block`.
    """

    __slots__ = ("estimated_cluster_sizes", "materialised_state",
                 "annotated_state")

    def __init__(self) -> None:
        self.estimated_cluster_sizes: Optional[tuple] = None
        #: (row_bound, interner, materialisation) or None.
        self.materialised_state: Optional[Tuple[Any, Any, Any]] = None
        #: (materialisation identity, annotated plan) or None.
        self.annotated_state: Optional[Tuple[Any, Any]] = None


@dataclass(frozen=True)
class CyclicEngineResult(DecodedResult):
    """The cyclic engine's answer plus the plan that produced it and its accounting.

    Mirrors :class:`~repro.engine.yannakakis.EngineResult`'s decode contract:
    under ``decode="block"`` ``relation`` is ``None`` and :meth:`decoded`
    materialises it lazily from ``block``.
    """

    relation: Optional[Relation]
    plan: CyclicExecutionPlan
    statistics: CyclicEngineStatistics
    block: ColumnBlock
    result_name: str = "cyclic"


def _evaluate_cyclic_bound(relations: Sequence[Relation],
                           wanted: Optional[FrozenSet[Attribute]],
                           plan: CyclicExecutionPlan, *,
                           catalog: Optional[StatisticsCatalog],
                           name: str, check_reduction: bool,
                           cluster_row_bound: Optional[int],
                           column_backend: Optional[str],
                           decode: str, warm: _WarmPrepare) -> CyclicEngineResult:
    """Run ``plan`` over ``relations``: materialise clusters, reduce, fold, decode.

    Builds no hypergraph and computes no fingerprint: the caller
    (:class:`~repro.engine.session.PreparedQuery`, which checks both once
    per binding) vouches that ``plan`` was compiled for the relations'
    schema and that ``wanted`` lies within it.

    ``catalog`` switches on adaptive execution: the intra-cluster
    nested-loop order follows its estimates, and the quotient runs with a
    fresh *exact* catalog of the just-materialised cluster relations
    (cost-ordered reduction and join).  Answers are always identical to the
    static run.  ``cluster_row_bound`` caps intra-cluster intermediates
    (:class:`~repro.exceptions.ClusterBoundExceededError` beyond it),
    checked against the rows each intra-cluster join produced *before* the
    projection onto what its cluster exports.  ``warm`` is the binding's
    memo of the prepare-phase artefacts.
    """
    tracer = current_tracer()
    prepare_span = tracer.span("prepare")
    prepare_started = perf_counter()
    with prepare_span:
        if prepare_span.is_recording:
            prepare_span.set("kind", "cyclic")
            prepare_span.set("plan_cache_hit", True)
            prepare_span.set("adaptive", catalog is not None)
            prepare_span.set("clusters", len(plan.clusters))
    prepare_seconds = perf_counter() - prepare_started
    check_deadline("materialise")

    estimated_cluster_sizes: tuple = ()
    if catalog is not None:
        estimated_cluster_sizes = warm.estimated_cluster_sizes
        if estimated_cluster_sizes is None:
            estimated_cluster_sizes = warm.estimated_cluster_sizes = tuple(
                cluster.estimated_rows(catalog) for cluster in plan.clusters)
    # The quotient plan is executed from the cyclic plan itself — no second
    # planner lookup, so a small LRU never thrashes between the cyclic plan
    # and its own embedded quotient plan.  Adaptively, the quotient runs with
    # an exact catalog of the materialised clusters: their sizes are known
    # the moment they exist, so the quotient-level annotation is free.
    inner_plan = plan.inner
    # The cluster blocks feed the quotient pipeline directly — no decode /
    # re-encode round trip between the phases; only the final quotient
    # result is decoded to a relation (and not even that under
    # decode="block").
    backend = resolve_column_backend(column_backend)
    column_before = column_cache_info()
    with use_column_backend(backend):
        materialise_span = tracer.span("materialise")
        materialise_started = perf_counter()
        with materialise_span:
            # Cluster blocks are immutable and fully determined by the
            # cover, the relation tuple, the catalog's order keys and the
            # outputs — all fixed by the binding — so a warm run with the
            # same row bound and interner generation reuses them outright:
            # materialisation dominated warm cyclic prepare time.
            interner = current_interner()
            cached = warm.materialised_state
            if cached is not None and cached[0] == cluster_row_bound \
                    and cached[1] is interner:
                materialised = cached[2]
                materialise_cached = True
            else:
                materialised = materialise_cluster_blocks(plan.cover, relations,
                                                          row_bound=cluster_row_bound,
                                                          catalog=catalog,
                                                          wanted=wanted)
                warm.materialised_state = (cluster_row_bound, interner,
                                           materialised)
                materialise_cached = False
            if materialise_span.is_recording:
                materialise_span.set("backend", backend.name)
                materialise_span.set("cached", materialise_cached)
                materialise_span.set("cluster_sizes",
                                     list(materialised.cluster_sizes))
                materialise_span.set("intermediates",
                                     list(materialised.intermediate_sizes))
                materialise_span.set("probe_rows",
                                     list(materialised.probe_rows))
                materialise_span.set("fan_out", [cluster.fan_out
                                                 for cluster in plan.clusters])
                materialise_span.set("schemes", [list(sorted_nodes(scheme))
                                                 for scheme in materialised.schemes])
                materialise_span.set("kept", [list(sorted_nodes(block.attribute_set))
                                              for block in materialised.blocks])
        materialise_seconds = perf_counter() - materialise_started
        check_deadline("encode")
        annotate_started = perf_counter()
        inner_annotated = None
        if catalog is not None:
            annotated_state = warm.annotated_state
            if annotated_state is not None and annotated_state[0] is materialised:
                inner_annotated = annotated_state[1]
            else:
                inner_annotated = annotate_plan(
                    inner_plan,
                    catalog_from_blocks(materialised.blocks, materialised.schemes),
                    output_attributes=wanted)
                warm.annotated_state = (materialised, inner_annotated)
        # The quotient-level annotation is planning work, so its time counts
        # toward the prepare phase even though it runs post-materialisation.
        prepare_seconds += perf_counter() - annotate_started
        trace = ReductionTrace()
        encode_started = perf_counter()
        blocks = vertex_blocks(materialised.blocks, inner_plan.vertices,
                               materialised.schemes)
        encode_seconds = perf_counter() - encode_started
        check_deadline("reduce")
        result_block, inner_intermediates, physical_seconds = run_columnar_plan(
            inner_plan, inner_annotated, blocks, wanted,
            trace=trace, check_reduction=check_reduction)
        check_deadline("decode")
        relation, decode_seconds = decode_result_block(
            result_block, name, decode, backend.name)
    column_after = column_cache_info()
    phase_times = (("prepare", prepare_seconds),
                   ("materialise", materialise_seconds),
                   ("encode", encode_seconds),
                   ("reduce", physical_seconds["reduce"]),
                   ("fold", physical_seconds["fold"]),
                   ("decode", decode_seconds))

    statistics = CyclicEngineStatistics(
        plan_name="engine-cyclic-adaptive" if catalog is not None else "engine-cyclic",
        input_sizes=tuple(len(relation_) for relation_ in relations),
        intermediate_sizes=materialised.intermediate_sizes + inner_intermediates,
        output_size=len(relation) if relation is not None else len(result_block),
        semijoin_steps=trace.steps_run,
        rows_removed_by_reduction=trace.rows_removed,
        reduced_sizes=trace.sizes_after,
        plan_cache_hit=True,
        index_cache_hits=column_after["hits"] - column_before["hits"],
        index_cache_misses=column_after["misses"] - column_before["misses"],
        column_backend=backend.name,
        adaptive=catalog is not None,
        estimated_intermediate_sizes=(
            materialised.estimated_intermediate_sizes
            + (inner_annotated.annotation.estimated_intermediate_sizes
               if inner_annotated is not None else ())),
        estimated_output_size=(inner_annotated.annotation.estimated_output_size
                               if inner_annotated is not None else None),
        cluster_sizes=materialised.cluster_sizes,
        cluster_widths=tuple(cluster.width for cluster in plan.clusters),
        estimated_cluster_sizes=estimated_cluster_sizes,
        phase_times=phase_times,
    )
    return CyclicEngineResult(relation=relation, plan=plan, statistics=statistics,
                              block=result_block, result_name=name)
