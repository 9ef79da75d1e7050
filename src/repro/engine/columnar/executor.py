"""The columnar execution pipeline: reduce and join whole blocks, decode last.

This module is the physical half of a prepared query's execution
(:mod:`repro.engine.yannakakis`): the compiled plan (structure or annotated)
drives the two reducer passes and the bottom-up join fold with fused
projection; every operator runs on :class:`ColumnBlock` values, and the
result is decoded to a :class:`~repro.relational.relation.Relation` only at
the boundary.

**The bound program.**  Both halves run as one program compiled at plan time
(:func:`bound_program`, memoised on the plan per output set): the reducer's
steps over integer vertex slots with their canonical separators, tree
components and proof-of-reduction pairs (:class:`ReductionProgram`), and the
fold's schedule over the same slots (:class:`FoldProgram`).  What depends on
the input blocks' names and column orders — each join's output name, kept
and joined columns and separator — is linked once per run.  A run resolves
the tracer and backend once, checks once that every input block shares one
interner, and replays the steps: each builds its memo key from the
precompiled part plus both sides' selection keys — the very key the public
kernels build, so both share each storage's ``_derived`` memo — answers a
hit straight from the stored outcome and calls the kernel body on a miss.
Memo hits are counted in one add per run and ``kernel:*`` spans are opened
only when the tracer records, so a replay over cached blocks costs its memo
lookups (a warm execute on the same binding replays nothing: the binding
serves its memoised outcome).

The engine's one evaluator drives this pipeline for both dispatches: an
acyclic plan's input relations are encoded into cached blocks, and a cyclic
plan's quotient takes the cluster blocks
:func:`~repro.engine.cyclic.quotient.materialise_cluster_blocks` produced —
no decode/re-encode round trip between the phases.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ...core.hypergraph import Edge
from ...core.join_tree import RootedJoinTree
from ...core.nodes import format_node_set, sorted_nodes
from ...exceptions import SchemaError
from ...relational.relation import Relation
from ...relational.schema import Attribute
from ...telemetry.tracing import current_tracer
from ..catalog import RelationStatistics, StatisticsCatalog
from ..reducer import CheckHook, ReductionError, ReductionStep, ReductionTrace
from .block import ColumnBlock, count_fold_program, count_keyset
from .buffers import active_column_backend
from .kernels import (
    JoinLayout,
    check_one_generation,
    join_layout,
    join_step,
    membership_step,
    merge_blocks_by_scheme,
    traced_join_step,
    traced_membership_step,
)

__all__ = [
    "vertex_blocks",
    "ReductionProgram",
    "FoldProgram",
    "compile_fold_program",
    "BoundProgram",
    "bound_program",
    "run_columnar_plan",
    "catalog_from_blocks",
    "statistics_from_block",
]


def vertex_blocks(relations: Sequence[Relation],
                  vertices: Tuple[Edge, ...],
                  schemes: Optional[Sequence[Edge]] = None,
                  lookups: Optional[List[int]] = None) -> Dict[Edge, ColumnBlock]:
    """One block per join-tree vertex (same-scheme inputs intersected).

    ``relations`` may mix :class:`Relation` objects (encoded through the
    per-relation block cache) and pre-built :class:`ColumnBlock` values (the
    cyclic plan's materialised clusters).  ``schemes``, position-aligned
    with ``relations``, names the vertex each input stands for when that is
    not its own attribute set — a cluster block projected onto what the
    cluster exports.  ``lookups`` is the caller's ``[hits, misses]`` tally
    of block-cache lookups (:func:`~repro.engine.columnar.block.block_for`).
    """
    span = current_tracer().span("encode")
    with span:
        merged = merge_blocks_by_scheme(relations, schemes, lookups)
        result: Dict[Edge, ColumnBlock] = {}
        for vertex in vertices:
            block = merged.get(vertex)
            if block is None:
                raise SchemaError("join-tree vertex without a matching relation")
            result[vertex] = block
        if span.is_recording:
            _describe_encode(span, [len(block) for block in result.values()])
        return result


def _describe_encode(span, sizes: Sequence[int]) -> None:
    """Set a recording ``encode`` span's attributes from the vertex blocks' sizes."""
    span.set("vertices", len(sizes))
    span.set("input_rows", sum(sizes))


# --------------------------------------------------------------------------- #
# The reducer, compiled to vertex slots
# --------------------------------------------------------------------------- #
#: One compiled semijoin ``target := target ⋉ source``: both vertex slots and
#: the canonical separator (``()`` when the vertices share nothing).
SlotStep = Tuple[int, int, Tuple[Attribute, ...]]


class ReductionProgram:
    """A full reducer's steps compiled over integer vertex slots.

    Slot ``i`` is the ``i``-th vertex of the rooted tree's parent-before-child
    order.  ``steps`` are the reducer's two passes and ``checks`` the
    proof-of-reduction pairs — ``parent ⋉ child`` and ``child ⋉ parent`` for
    every tree edge, each of which must be a fixpoint after the passes.
    ``component`` maps a slot to its tree component (the slot of the
    component's root), ``members`` a component to its slots.
    """

    __slots__ = ("rooted", "vertices", "slot_of", "steps", "checks",
                 "component", "members")

    def __init__(self, rooted: RootedJoinTree, steps: Sequence[ReductionStep]) -> None:
        self.rooted = rooted
        self.vertices: Tuple[Edge, ...] = tuple(vertex for vertex, _ in rooted.order)
        slot_of = self.slot_of = {vertex: slot for slot, vertex in enumerate(self.vertices)}
        self.steps: Tuple[SlotStep, ...] = tuple(
            (slot_of[step.target], slot_of[step.source], step.on or ())
            for step in steps)
        checks: List[SlotStep] = []
        component: List[int] = []
        for vertex, parent in rooted.order:
            if parent is None:
                component.append(slot_of[vertex])
                continue
            component.append(component[slot_of[parent]])
            separator = tuple(sorted_nodes(vertex & parent))
            checks += [(slot_of[parent], slot_of[vertex], separator),
                       (slot_of[vertex], slot_of[parent], separator)]
        self.checks: Tuple[SlotStep, ...] = tuple(checks)
        self.component: Tuple[int, ...] = tuple(component)
        self.members: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(slot for slot, owner in enumerate(component) if owner == root)
            for root in range(len(component)))


def _stable(checks: Tuple[SlotStep, ...], current: List[ColumnBlock], backend,
            semijoin) -> Tuple[bool, int]:
    """Run the proof-of-reduction pairs: ``(every one a fixpoint, memo hits)``.

    ``semijoin`` is :func:`membership_step` or its traced form.
    """
    hits = 0
    for target, source, separator in checks:
        block = current[target]
        result, memo_hit = semijoin(block, current[source], separator, backend)
        hits += memo_hit is True
        if result is not block:
            return False, hits
    return True, hits


def reduce_slots(program: ReductionProgram, current: List[ColumnBlock], backend,
                 tracer, *, trace: Optional[ReductionTrace] = None,
                 verify: bool = True, check_hook: Optional[CheckHook] = None) -> None:
    """Replay the reducer over ``current`` (slot-indexed blocks), in place.

    Every step is :func:`~repro.engine.columnar.kernels.membership_step` on
    its precompiled separator, with a ``kernel:semijoin`` span around it only
    when the tracer records.  When a vertex becomes empty, every vertex of
    its tree component is emptied at once (the join is empty; nothing
    downstream can survive) and the remaining steps of that component are
    skipped.  ``verify`` runs the proof-of-reduction pairs; ``check_hook``
    is a caller's own check on the reduced vertex map.  The run's memo hits
    are counted in one add.
    """
    component, members = program.component, program.members
    span = tracer.span("reduce")
    with span:
        recording = span.is_recording
        semijoin = traced_membership_step if recording else membership_step
        sizes_before = tuple(map(len, current))
        dead = set()
        removed = steps_run = hits = 0
        for target, size in enumerate(sizes_before):
            if not size:
                dead.add(component[target])
                removed += _emptied(current, members[component[target]])
        for target, source, separator in program.steps:
            if component[target] in dead:
                continue
            block = current[target]
            reduced, memo_hit = semijoin(block, current[source], separator, backend)
            hits += memo_hit is True
            steps_run += 1
            if reduced is not block:
                removed += len(block) - len(reduced)
                current[target] = reduced
                if not len(reduced):
                    dead.add(component[target])
                    removed += _emptied(current, members[component[target]])
        sizes_after = tuple(map(len, current))
        if trace is not None:
            trace.steps_run += steps_run
            trace.rows_removed += removed
            trace.sizes_before = sizes_before
            trace.sizes_after = sizes_after
        if recording:
            _describe_reduce(span, program.vertices, sizes_before, sizes_after,
                             removed, steps_run)
        stable = True
        if verify:
            stable, check_hits = _stable(program.checks, current, backend, semijoin)
            hits += check_hits
        count_keyset(True, hits)
        if check_hook is not None:
            stable = check_hook(dict(zip(program.vertices, current)), program.rooted)
        if not stable:
            raise ReductionError("proof-of-reduction check failed: a relation is "
                                 "not semijoin-stable against a tree neighbour")


def _describe_reduce(span, vertices: Sequence[Edge], sizes_before: Sequence[int],
                     sizes_after: Sequence[int], removed: int, steps: int) -> None:
    """Set a recording ``reduce`` span's attributes (EXPLAIN ANALYZE reads them)."""
    span.set("vertices", [format_node_set(vertex) for vertex in vertices])
    span.set("sizes_before", list(sizes_before))
    span.set("sizes_after", list(sizes_after))
    span.set("rows_removed", removed)
    span.set("steps", steps)


def _emptied(current: List[ColumnBlock], slots: Tuple[int, ...]) -> int:
    """Empty every listed slot in place; return how many rows that dropped."""
    emptied = 0
    for slot in slots:
        block = current[slot]
        if len(block):
            emptied += len(block)
            current[slot] = block.empty()
    return emptied


# --------------------------------------------------------------------------- #
# The fold, compiled to vertex slots
# --------------------------------------------------------------------------- #
#: One compiled fold step: a vertex slot, its ``(child slot, keep)`` joins in
#: fold order, and the keep-set its partial join ends on (``None``: keep all).
FoldStep = Tuple[int, Tuple[Tuple[int, Optional[FrozenSet[Attribute]]], ...],
                 Optional[FrozenSet[Attribute]]]


@dataclass(frozen=True)
class FoldProgram:
    """The bottom-up fold's schedule over vertex slots, for one output set.

    ``steps`` run leaf-to-root; ``root`` is the first tree root and
    ``merges`` the ``(root, keep)`` joins that fold the other components
    into it; ``columns`` is the answer's canonical column order.  Every
    keep-set depends only on the rooted tree, the child fold order and the
    requested outputs — never on the data.
    """

    steps: Tuple[FoldStep, ...]
    root: int
    merges: Tuple[Tuple[int, Optional[FrozenSet[Attribute]]], ...]
    columns: Tuple[Attribute, ...]


def compile_fold_program(rooted: RootedJoinTree,
                         wanted: Optional[FrozenSet[Attribute]],
                         order_children: Callable[[Edge, Sequence[Edge]], Sequence[Edge]],
                         slot_of: Mapping[Edge, int]) -> FoldProgram:
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
            keeps = [None] * len(children)
            carried[vertex] = subtree
        else:
            final_keep = subtree & wanted
            if parent is not None:
                final_keep |= scheme & frozenset(parent)
            separators = [scheme & frozenset(child) for child in children]
            keeps = [final_keep.union(*separators[index + 1:])
                     for index in range(len(children))]
            carried[vertex] = final_keep
        steps.append((slot_of[vertex],
                      tuple(zip(map(slot_of.__getitem__, children), keeps)),
                      final_keep))

    roots = rooted.roots
    result = carried[roots[0]]
    merges = []
    for other_root in roots[1:]:
        result = result | carried[other_root]
        keep = None
        if wanted is not None:
            keep = result = result & wanted
        merges.append((slot_of[other_root], keep))
    return FoldProgram(steps=tuple(steps), root=slot_of[roots[0]],
                       merges=tuple(merges), columns=tuple(sorted_nodes(result)))


def _link_fold(program: FoldProgram,
               layout: Sequence[Tuple[str, Tuple[Attribute, ...]]]) -> Tuple[tuple, tuple]:
    """Resolve every join's output name, columns and separator for one input layout.

    ``layout`` is each slot's input ``(name, attributes)``; the reducer
    changes neither, so following it through the fold yields once what each
    join kernel would derive from its operands (:func:`join_layout`).
    Returns ``(steps, merges)``: each step ``(vertex slot, ((child slot, join
    layout), ...), keep-set to project onto or None)``, each merge ``(root
    slot, join layout)``.
    """
    state = list(layout)

    def join(left: int, right: int, keep) -> JoinLayout:
        joined = join_layout(*state[left], *state[right], keep)
        state[left] = (joined[0], joined[3])
        return joined

    steps = []
    for vertex, joins, final_keep in program.steps:
        linked = tuple((child, join(vertex, child, keep)) for child, keep in joins)
        name, attributes = state[vertex]
        project = None
        if final_keep is not None and final_keep != frozenset(attributes):
            project = final_keep
            state[vertex] = (name, tuple(a for a in attributes if a in final_keep))
        steps.append((vertex, linked, project))
    merges = tuple((other_root, join(program.root, other_root, keep))
                   for other_root, keep in program.merges)
    return tuple(steps), merges


def _fold(program: FoldProgram, link: Tuple[tuple, tuple], current: List[ColumnBlock],
          backend, tracer) -> Tuple[ColumnBlock, List[int]]:
    """Replay a linked fold over the reduced slot blocks: (result, intermediate sizes).

    Children are joined into their parent leaf-to-root, then the tree roots
    into each other, each join with its keep-set fused in
    (:func:`~repro.engine.columnar.kernels.join_step`), so dead attributes
    are never materialised; ``kernel:join`` spans open only when the tracer
    records.  The result comes back in the program's canonical column order
    — deterministic across plans.
    """
    steps, merges = link
    span = tracer.span("fold")
    with span:
        recording = span.is_recording
        join = traced_join_step if recording else join_step
        intermediates: List[int] = []
        for vertex, joins, project in steps:
            block = current[vertex]
            for child, layout in joins:
                block = join(block, current[child], layout, backend)
                intermediates.append(len(block))
            if project is not None:
                block = block.project_onto(project).distinct()
            current[vertex] = block
        result = current[program.root]
        for other_root, layout in merges:
            result = join(result, current[other_root], layout, backend)
            intermediates.append(len(result))
        result = result.with_column_order(program.columns)
        if recording:
            _describe_fold(span, intermediates, len(result))
    return result, intermediates


def _describe_fold(span, intermediates: Sequence[int], output_rows: int) -> None:
    """Set a recording ``fold`` span's attributes (EXPLAIN ANALYZE reads them)."""
    span.set("intermediates", list(intermediates))
    span.set("output_rows", output_rows)


# --------------------------------------------------------------------------- #
# The bound program: reduce, then fold
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BoundProgram:
    """One plan's whole physical run for one output set: reduce, then fold.

    ``reduction`` is the plan's reducer compiled to slots, ``fold`` its fold
    schedule over the same slots.  Neither depends on the data or on the
    input blocks' names and column orders; the joins' output names and
    columns are linked to those per run (:func:`_link_fold`).
    """

    reduction: ReductionProgram
    fold: FoldProgram


def bound_program(plan, wanted: Optional[FrozenSet[Attribute]]) -> BoundProgram:
    """The plan's bound program for ``wanted``, compiled on first use.

    ``plan`` is a structure :class:`~repro.engine.planner.ExecutionPlan` or
    an :class:`~repro.engine.planner.AnnotatedPlan` (whose annotation fixes
    the reducer's step order and the child fold order).  Programs are
    memoised on the immutable plan, one per output set, so they live exactly
    as long as the plan; each compile counts as ``fold_programs`` in
    :func:`column_cache_info`.  Two threads racing on a cold plan may both
    compile; the programs are equal.
    """
    programs = getattr(plan, "_bound_programs", None)
    if programs is None:
        programs = {}
        object.__setattr__(plan, "_bound_programs", programs)
    program = programs.get(wanted)
    if program is None:
        reduction = ReductionProgram(plan.reducer.rooted, plan.reducer.steps)
        order_children = getattr(plan, "order_children", None)
        program = programs[wanted] = BoundProgram(reduction, compile_fold_program(
            plan.rooted, wanted,
            order_children if order_children is not None
            else lambda vertex, children: children,
            reduction.slot_of))
        count_fold_program()
    return program


def run_columnar_plan(plan, annotated, blocks: Mapping[Edge, ColumnBlock],
                      wanted: Optional[FrozenSet[Attribute]], *,
                      trace: Optional[ReductionTrace] = None,
                      check_reduction: bool = False
                      ) -> Tuple[ColumnBlock, Tuple[int, ...], Dict[str, float]]:
    """Reduce and bottom-up-join the vertex blocks by replaying the bound program.

    Returns ``(result block, intermediates, phase seconds)`` — the result in
    canonical column order, and the measured ``reduce`` and ``fold``
    wall-times, which the evaluator folds into :attr:`EngineStatistics.phase_times
    <repro.engine.planner.EngineStatistics.phase_times>`.

    ``plan`` is the structure :class:`~repro.engine.planner.ExecutionPlan`;
    ``annotated`` (optional) supplies the cost-ordered reducer and the child
    fold order, and its program runs when there is one
    (:func:`bound_program`).  The backend and the tracer are resolved once,
    and one check rejects input blocks from different interner generations;
    ``check_reduction`` runs the proof-of-reduction pairs after the two
    reducer passes.  The fold is linked to the input blocks' names and
    column orders for this call (:func:`_link_fold`).
    """
    program = bound_program(annotated if annotated is not None else plan, wanted)
    reduction = program.reduction
    current = [blocks[vertex] for vertex in reduction.vertices]
    check_one_generation(current)
    link = _link_fold(program.fold, [(block.name, block.attributes)
                                     for block in current])
    backend, tracer = active_column_backend(), current_tracer()
    reduce_started = perf_counter()
    reduce_slots(reduction, current, backend, tracer, trace=trace,
                 verify=check_reduction)
    reduce_seconds = perf_counter() - reduce_started
    fold_started = perf_counter()
    result, intermediates = _fold(program.fold, link, current, backend, tracer)
    fold_seconds = perf_counter() - fold_started
    return result, tuple(intermediates), {"reduce": reduce_seconds,
                                          "fold": fold_seconds}


def statistics_from_block(block: ColumnBlock) -> RelationStatistics:
    """Exact relation statistics measured columnar-side (no row decode).

    Cardinality is the selection length; each per-attribute distinct count
    is the active backend's ``distinct_count`` over the selected ids — on
    numpy the occupied slots of the dense id table, no id boxed — and
    interning maps equal values to equal ids, so these are the numbers a
    walk over the rows' values would count.  This is what
    :meth:`RelationStatistics.measure
    <repro.engine.catalog.RelationStatistics.measure>` and the statistics of
    every materialised cluster block (the cyclic quotient's catalog).
    """
    backend = active_column_backend()
    positions = block.positions
    distinct = {attribute: backend.distinct_count(block.column(attribute), positions)
                for attribute in block.attributes}
    return RelationStatistics(edge=block.attribute_set, cardinality=len(block),
                              distinct_counts=distinct)


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
