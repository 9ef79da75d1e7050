"""The columnar execution pipeline: reduce and join whole blocks, decode last.

This module is the physical half of a prepared query's execution
(:mod:`repro.engine.yannakakis`): the compiled plan (structure or annotated) drives the two reducer passes and
the bottom-up join fold with fused projection, replayed from the plan's
compiled :class:`FoldProgram` (:func:`fold_join_tree`); every
operator runs on :class:`ColumnBlock` values, and the result is decoded to a
:class:`~repro.relational.relation.Relation` only at the boundary.

The engine's one evaluator drives this pipeline for both dispatches: an
acyclic plan's input relations are encoded into cached blocks, and a cyclic
plan's quotient takes the cluster blocks
:func:`~repro.engine.cyclic.quotient.materialise_cluster_blocks` produced —
no decode/re-encode round trip between the phases.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ...core.hypergraph import Edge
from ...core.join_tree import RootedJoinTree
from ...core.nodes import sorted_nodes
from ...exceptions import SchemaError
from ...relational.relation import Relation
from ...relational.schema import Attribute
from ...telemetry.tracing import current_tracer
from ..catalog import RelationStatistics, StatisticsCatalog
from ..reducer import ReductionTrace
from .block import ColumnBlock, count_fold_program
from .buffers import active_column_backend
from .kernels import merge_blocks_by_scheme, natural_join_blocks

__all__ = [
    "vertex_blocks",
    "FoldProgram",
    "compile_fold_program",
    "fold_program",
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
    cyclic plan's materialised clusters).  ``schemes``, position-aligned
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


#: One compiled fold step: a vertex, its ``(child, keep)`` joins in fold
#: order, and the keep-set its partial join ends on (``None``: keep all).
FoldStep = Tuple[Edge, Tuple[Tuple[Edge, Optional[FrozenSet[Attribute]]], ...],
                 Optional[FrozenSet[Attribute]]]


@dataclass(frozen=True)
class FoldProgram:
    """:func:`fold_join_tree`'s schedule, compiled once per plan and output set.

    ``steps`` run leaf-to-root; ``root`` is the first tree root and
    ``merges`` the ``(root, keep)`` joins that fold the other components
    into it; ``columns`` is the answer's canonical column order.  Every
    keep-set depends only on the rooted tree, the child fold order and the
    requested outputs — never on the data — so a warm run replays the
    program and derives nothing.
    """

    steps: Tuple[FoldStep, ...]
    root: Edge
    merges: Tuple[Tuple[Edge, Optional[FrozenSet[Attribute]]], ...]
    columns: Tuple[Attribute, ...]


def compile_fold_program(rooted: RootedJoinTree,
                         wanted: Optional[FrozenSet[Attribute]],
                         order_children: Callable[[Edge, Sequence[Edge]], Sequence[Edge]]
                         ) -> FoldProgram:
    """Compile the bottom-up fold of ``rooted`` for the outputs ``wanted``.

    A vertex's partial join keeps only the requested outputs visible in its
    subtree plus the separator to its parent; while its children are being
    folded in, the separators to the *not yet joined* children stay live
    too.  ``order_children`` injects the cost annotation's fold order (the
    identity for static plans).  With ``wanted=None`` nothing is projected.
    """
    steps: List[FoldStep] = []
    carried: Dict[Edge, FrozenSet[Attribute]] = {}  # each partial join's attributes
    for vertex, parent in rooted.leaf_to_root():
        scheme = frozenset(vertex)
        children = tuple(order_children(vertex, rooted.children_of(vertex)))
        subtree = scheme.union(*(carried[child] for child in children))
        if wanted is None:
            final_keep = None
            joins = tuple((child, None) for child in children)
            carried[vertex] = subtree
        else:
            final_keep = subtree & wanted
            if parent is not None:
                final_keep |= scheme & frozenset(parent)
            separators = [scheme & frozenset(child) for child in children]
            joins = tuple((child, final_keep.union(*separators[index + 1:])
                           if index + 1 < len(children) else final_keep)
                          for index, child in enumerate(children))
            carried[vertex] = final_keep
        steps.append((vertex, joins, final_keep))

    roots = rooted.roots
    result = carried[roots[0]]
    merges = []
    for other_root in roots[1:]:
        result = result | carried[other_root]
        keep = None
        if wanted is not None:
            keep = result = result & wanted
        merges.append((other_root, keep))
    return FoldProgram(steps=tuple(steps), root=roots[0], merges=tuple(merges),
                       columns=tuple(sorted_nodes(result)))


def fold_program(plan, wanted: Optional[FrozenSet[Attribute]]) -> FoldProgram:
    """The plan's fold program for ``wanted``, compiled on first use.

    ``plan`` is a structure :class:`~repro.engine.planner.ExecutionPlan` or
    an :class:`~repro.engine.planner.AnnotatedPlan` (whose annotation fixes
    the child fold order).  Programs are memoised on the immutable plan, one
    per output set, so they live exactly as long as the plan; each compile
    counts as ``fold_programs`` in :func:`column_cache_info`.  Two threads
    racing on a cold plan may both compile; the programs are equal.
    """
    programs = getattr(plan, "_fold_programs", None)
    if programs is None:
        programs = {}
        object.__setattr__(plan, "_fold_programs", programs)
    program = programs.get(wanted)
    if program is None:
        order_children = getattr(plan, "order_children", None)
        program = programs[wanted] = compile_fold_program(
            plan.rooted, wanted,
            order_children if order_children is not None
            else lambda vertex, children: children)
        count_fold_program()
    return program


def fold_join_tree(program: FoldProgram, reduced: Dict[Edge, ColumnBlock]
                   ) -> Tuple[ColumnBlock, List[int]]:
    """Replay a fold program over the reduced vertex blocks; return (result, intermediate sizes).

    Children are joined into their parent leaf-to-root, then the tree roots
    into each other, each join with the program's keep-set fused in
    (:func:`natural_join_blocks`), so dead attributes are never
    materialised.  The result comes back in the program's canonical column
    order — deterministic across plans.
    """
    span = current_tracer().span("fold")
    with span:
        intermediates: List[int] = []
        partial: Dict[Edge, ColumnBlock] = {}
        for vertex, joins, final_keep in program.steps:
            current = reduced[vertex]
            for child, keep in joins:
                current = natural_join_blocks(current, partial[child], project_onto=keep)
                intermediates.append(len(current))
            if final_keep is not None and final_keep != current.attribute_set:
                current = current.project_onto(final_keep).distinct()
            partial[vertex] = current
        result = partial[program.root]
        for other_root, keep in program.merges:
            result = natural_join_blocks(result, partial[other_root], project_onto=keep)
            intermediates.append(len(result))
        result = result.with_column_order(program.columns)
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

    Returns ``(result block, intermediates, phase seconds)`` — the result in
    canonical column order, and the measured ``reduce`` and ``fold``
    wall-times, which the evaluators fold into :attr:`EngineStatistics.phase_times
    <repro.engine.planner.EngineStatistics.phase_times>`.

    ``plan`` is the structure :class:`~repro.engine.planner.ExecutionPlan`;
    ``annotated`` (optional) supplies the cost-ordered reducer and the child
    fold order.  The fold replays the compiled program of the annotated plan
    when there is one, else of the structure plan (:func:`fold_program`).
    """
    active = annotated if annotated is not None else plan
    reduce_started = perf_counter()
    reduced = active.reducer.run_blocks(blocks, trace=trace,
                                        check_hook=None if check_reduction else _skip_check)
    reduce_seconds = perf_counter() - reduce_started
    fold_started = perf_counter()
    result, intermediates = fold_join_tree(fold_program(active, wanted), reduced)
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
