"""The columnar execution pipeline: reduce and join whole blocks, decode last.

This module is the block-level mirror of the physical half of
:func:`repro.engine.yannakakis.evaluate`: the same compiled plan (structure
or annotated), the same two reducer passes, the same bottom-up join fold with
fused projection — but every operator runs on :class:`ColumnBlock` values and
the result is decoded to a :class:`~repro.relational.relation.Relation` only
at the boundary.  All *logical* accounting (intermediate sizes, reduction
trace, reduced sizes) is byte-identical to the row engine's, so statistics
and acceptance bounds compare one-to-one across execution modes.

Both the acyclic evaluator and the cyclic executor drive this pipeline: the
former encodes input relations into cached blocks, the latter feeds the
cluster blocks :func:`~repro.engine.cyclic.quotient.materialise_cluster_blocks`
produced — no decode/re-encode round trip between the phases.
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from ...core.hypergraph import Edge
from ...exceptions import SchemaError
from ...relational.relation import Relation
from ...relational.schema import Attribute
from ...telemetry.tracing import current_tracer
from ..catalog import RelationStatistics, StatisticsCatalog
from ..fold import fold_join_tree
from ..reducer import ReductionTrace
from .block import ColumnBlock
from .buffers import active_column_backend
from .kernels import merge_blocks_by_scheme, natural_join_blocks

__all__ = [
    "vertex_blocks",
    "run_columnar_plan",
    "catalog_from_blocks",
    "statistics_from_block",
]


def _skip_check(blocks, rooted) -> bool:
    """The no-op proof-of-reduction hook used when ``check_reduction`` is off."""
    return True


def vertex_blocks(relations: Sequence[Relation],
                  vertices: Tuple[Edge, ...],
                  schemes: Optional[Sequence[Edge]] = None) -> Dict[Edge, ColumnBlock]:
    """One block per join-tree vertex (same-scheme inputs intersected).

    ``relations`` may mix :class:`Relation` objects (encoded through the
    per-relation block cache) and pre-built :class:`ColumnBlock` values (the
    cyclic executor's materialised clusters).  ``schemes``, position-aligned
    with ``relations``, names the vertex each input stands for when that is
    not its own attribute set — a cluster block projected onto what the
    cluster exports.
    """
    span = current_tracer().span("encode")
    with span:
        merged = merge_blocks_by_scheme(relations, schemes)
        result: Dict[Edge, ColumnBlock] = {}
        for vertex in vertices:
            block = merged.get(vertex)
            if block is None:
                raise SchemaError("join-tree vertex without a matching relation")
            result[vertex] = block
        if span.is_recording:
            span.set("mode", "columnar")
            span.set("vertices", len(result))
            span.set("input_rows", sum(len(block) for block in result.values()))
        return result


def run_columnar_plan(plan, annotated, blocks: Dict[Edge, ColumnBlock],
                      wanted: Optional[FrozenSet[Attribute]], *,
                      trace: Optional[ReductionTrace] = None,
                      check_reduction: bool = False
                      ) -> Tuple[ColumnBlock, Tuple[int, ...], Dict[str, float]]:
    """Reduce and bottom-up-join the vertex blocks.

    Returns ``(result block, intermediates, phase seconds)`` — the third
    element holds the measured ``reduce`` and ``fold`` wall-times, which the
    drivers fold into :attr:`EngineStatistics.phase_times
    <repro.engine.planner.EngineStatistics.phase_times>`.

    ``plan`` is the structure :class:`~repro.engine.planner.ExecutionPlan`;
    ``annotated`` (optional) supplies the cost-ordered reducer and the child
    fold order, exactly as in the row evaluator.  The join fold *is* the row
    evaluator's — :func:`~repro.engine.fold.fold_join_tree` with the block
    kernels plugged in — so the keep-set computation and the recorded
    intermediate sizes agree with the row engine by construction.
    """
    reducer = annotated.reducer if annotated is not None else plan.reducer
    reduce_started = perf_counter()
    reduced = reducer.run_blocks(blocks, trace=trace,
                                 check_hook=None if check_reduction else _skip_check)
    reduce_seconds = perf_counter() - reduce_started
    fold_started = perf_counter()
    result, intermediates = fold_join_tree(
        plan.rooted, reduced, wanted,
        order_children=(annotated.order_children if annotated is not None
                        else lambda vertex, children: children),
        join=lambda left, right, keep: natural_join_blocks(left, right,
                                                           project_onto=keep),
        project=lambda block, keep: block.project_onto(keep).distinct(),
        attributes_of=lambda block: block.attribute_set)
    fold_seconds = perf_counter() - fold_started
    return result, tuple(intermediates), {"reduce": reduce_seconds,
                                          "fold": fold_seconds}


def statistics_from_block(block: ColumnBlock) -> RelationStatistics:
    """Exact relation statistics measured columnar-side (no row decode).

    Cardinality is the selection length; each per-attribute distinct count
    is the active backend's ``distinct_count`` over the selected ids — on
    numpy the occupied slots of the dense id table, no id boxed — and
    interning maps equal values to equal ids, so these are the numbers a
    walk over the rows' values would count.  This is the exact branch of
    :meth:`RelationStatistics.measure
    <repro.engine.catalog.RelationStatistics.measure>` and the statistics of
    every materialised cluster block (the cyclic quotient's catalog).
    """
    backend = active_column_backend()
    positions = block.positions
    distinct = {attribute: backend.distinct_count(block.column(attribute), positions)
                for attribute in block.attributes}
    return RelationStatistics(edge=block.attribute_set, cardinality=len(block),
                              distinct_counts=distinct, exact=True)


def catalog_from_blocks(blocks: Iterable[ColumnBlock],
                        schemes: Optional[Iterable[Edge]] = None
                        ) -> StatisticsCatalog:
    """An exact statistics catalog of already-materialised blocks.

    With ``schemes`` (position-aligned) each block's measurement is filed
    under the given scheme instead of its own attribute set — the quotient
    catalog of projected cluster blocks; an attribute the block dropped has
    no count and estimates as fully distinct, the catalog's usual fallback.
    """
    if schemes is None:
        return StatisticsCatalog(map(statistics_from_block, blocks))
    return StatisticsCatalog(replace(statistics_from_block(block), edge=scheme)
                             for block, scheme in zip(blocks, schemes))
