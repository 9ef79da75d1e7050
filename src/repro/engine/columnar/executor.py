"""The columnar execution pipeline: reduce and join whole blocks, decode last.

This module is the physical half of :func:`repro.engine.yannakakis.evaluate`:
the compiled plan (structure or annotated) drives the two reducer passes and
the bottom-up join fold with fused projection (:func:`fold_join_tree`); every
operator runs on :class:`ColumnBlock` values, and the result is decoded to a
:class:`~repro.relational.relation.Relation` only at the boundary.

Both the acyclic evaluator and the cyclic executor drive this pipeline: the
former encodes input relations into cached blocks, the latter feeds the
cluster blocks :func:`~repro.engine.cyclic.quotient.materialise_cluster_blocks`
produced — no decode/re-encode round trip between the phases.
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ...core.hypergraph import Edge
from ...core.join_tree import RootedJoinTree
from ...exceptions import SchemaError
from ...relational.relation import Relation
from ...relational.schema import Attribute
from ...telemetry.tracing import current_tracer
from ..catalog import RelationStatistics, StatisticsCatalog
from ..reducer import ReductionTrace
from .block import ColumnBlock
from .buffers import active_column_backend
from .kernels import merge_blocks_by_scheme, natural_join_blocks

__all__ = [
    "vertex_blocks",
    "fold_join_tree",
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
            span.set("vertices", len(result))
            span.set("input_rows", sum(len(block) for block in result.values()))
        return result


def fold_join_tree(rooted: RootedJoinTree, reduced: Dict[Edge, ColumnBlock],
                   wanted: Optional[FrozenSet[Attribute]], *,
                   order_children: Callable[[Edge, Sequence[Edge]], Sequence[Edge]]
                   ) -> Tuple[ColumnBlock, List[int]]:
    """Fold the reduced vertex blocks bottom-up; return (result, intermediate sizes).

    Children are joined into their parent leaf-to-root, then the tree roots
    into each other.  A vertex's partial join keeps only the requested
    outputs visible in its subtree plus the separator to its parent; while
    its children are being folded in, the separators to the *not yet
    joined* children stay live too.  That keep-set is fused into every
    :func:`natural_join_blocks`, so dead attributes are never materialised.
    ``order_children`` injects the cost annotation's fold order (the
    identity for static plans).
    """
    span = current_tracer().span("fold")
    with span:
        intermediates: List[int] = []
        partial: Dict[Edge, ColumnBlock] = {}
        for vertex, parent in rooted.leaf_to_root():
            current = reduced[vertex]
            children = order_children(vertex, rooted.children_of(vertex))
            final_keep: Optional[FrozenSet[Attribute]] = None
            if wanted is not None:
                subtree_attributes = set(vertex)
                for child in children:
                    subtree_attributes.update(partial[child].attribute_set)
                final_keep = frozenset(subtree_attributes) & wanted
                if parent is not None:
                    final_keep |= frozenset(vertex) & frozenset(parent)
            child_separators = [frozenset(vertex) & frozenset(child) for child in children]
            for index, child in enumerate(children):
                keep: Optional[FrozenSet[Attribute]] = None
                if final_keep is not None:
                    keep = final_keep.union(*child_separators[index + 1:]) \
                        if index + 1 < len(children) else final_keep
                current = natural_join_blocks(current, partial[child], project_onto=keep)
                intermediates.append(len(current))
            if final_keep is not None and final_keep != current.attribute_set:
                current = current.project_onto(final_keep).distinct()
            partial[vertex] = current

        roots = rooted.roots
        result = partial[roots[0]]
        for other_root in roots[1:]:
            keep = None
            if wanted is not None:
                keep = (result.attribute_set | partial[other_root].attribute_set) & wanted
            result = natural_join_blocks(result, partial[other_root], project_onto=keep)
            intermediates.append(len(result))
        if wanted is not None and wanted & result.attribute_set != result.attribute_set:
            result = result.project_onto(wanted).distinct()
        if span.is_recording:
            span.set("intermediates", list(intermediates))
            span.set("output_rows", len(result))
        return result, intermediates


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
    fold order.
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
                        else lambda vertex, children: children))
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
