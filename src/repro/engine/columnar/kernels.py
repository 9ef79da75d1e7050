"""Batched semijoin / natural-join kernels over typed column blocks.

These are the engine's physical operators.  They compute the same relations
as :func:`repro.relational.algebra.semijoin` / ``natural_join`` but move
whole typed position vectors per call through the active
:mod:`column-buffer backend <repro.engine.columnar.buffers>` instead of
probing rows one at a time:

* a **semijoin** is one batched membership pass — the left position
  vector filtered by its id codes' membership in the right side's cached
  key structure, which the backend builds from the right side's codes
  directly — and its whole outcome is memoised on the left storage:
  fixpoint (return ``left`` itself), dead end (no row kept) or the kept
  position vector with its selection key, so a warm step is one dictionary
  lookup over keys whose hashes are already cached;
* a **natural join** probes the smaller side's cached join table with the
  other side's whole code array, then materialises the output by batched
  positional gathers — no intermediate ``Row`` objects and no per-match
  Python tuples exist at any point;
* **fused projection** drops dead columns before the gather and
  deduplicates positionally, keeping set semantics.

A semijoin that filters nothing returns the *left block itself*, so
reducer fixpoints allocate nothing and the proof-of-reduction check can
test stability with ``is``.  Every kernel span records the active backend
and its batch size.

**One memo, two callers.**  Each kernel is split into what it derives from
its operands' layouts — the canonical separator, and for a join
(:func:`join_layout`) the output name, kept and joined columns — and a step
(:func:`membership_step`, :func:`join_step`) that builds the memo key from
those plus ``(left selection key, right storage token, right selection
key)``, answers a hit straight from the stored outcome and runs the kernel
body (:func:`_filtered_selection`, :func:`_joined_block`) on a miss; its
``traced_*`` form does the same inside the kernel's span.  The public
kernels derive per call; a bound program
(:mod:`repro.engine.columnar.executor`) derives its separators at compile
time and its join layouts once per database binding, and calls the same
steps, so both file and read the very same entries on each storage's
``_derived`` memo.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from ...core.hypergraph import Edge
from ...core.nodes import sorted_nodes
from ...exceptions import SchemaError, UnknownAttributeError
from ...relational.relation import Relation
from ...relational.schema import Attribute
from ...telemetry.tracing import current_tracer
from .block import ColumnBlock, block_for, count_keyset, selection_key
from .buffers import active_column_backend

__all__ = [
    "shared_block_attributes",
    "semijoin_blocks",
    "natural_join_blocks",
    "merge_blocks_by_scheme",
]


def shared_block_attributes(left: ColumnBlock, right: ColumnBlock) -> Tuple[Attribute, ...]:
    """The separator: attributes common to both blocks, in canonical order."""
    return tuple(sorted_nodes(left.attribute_set & right.attribute_set))


def _separator(left: ColumnBlock, right: ColumnBlock,
               on: Optional[Iterable[Attribute]]) -> Tuple[Attribute, ...]:
    """The effective separator, canonicalised so key dictionaries are shared.

    An ``on`` override must be a subset of both blocks' schemes.  The
    attribute order is canonical — the grouped key encoding is cached per
    attribute *tuple*, and key-set membership is order-invariant anyway.  A
    ``tuple`` is taken as already canonical; any other iterable is sorted.
    """
    if on is None:
        return shared_block_attributes(left, right)
    separator = on if type(on) is tuple else tuple(sorted_nodes(on))
    for attribute in separator:
        if attribute not in left.attribute_set or attribute not in right.attribute_set:
            raise UnknownAttributeError(attribute)
    return separator


def check_one_generation(blocks: Sequence[ColumnBlock]) -> None:
    """Reject id comparisons across interner generations (after a cache clear)."""
    if any(block.interner is not blocks[0].interner for block in blocks):
        raise SchemaError(
            "cannot combine column blocks encoded under different "
            "column-cache generations; re-encode after clear_column_caches()")


#: ``(output name, left columns, right columns, kept, joined, separator)``.
JoinLayout = Tuple[str, Tuple[Attribute, ...], Tuple[Attribute, ...],
                   Tuple[Attribute, ...], Tuple[Attribute, ...], Tuple[Attribute, ...]]


def join_layout(left_name: str, left_attributes: Tuple[Attribute, ...],
                right_name: str, right_attributes: Tuple[Attribute, ...],
                project_onto: Optional[FrozenSet[Attribute]],
                name: Optional[str] = None) -> JoinLayout:
    """Everything a join derives from its sides' names and column orders.

    The output columns follow :func:`repro.relational.algebra.natural_join`'s
    rule — ``left``'s columns then ``right``'s right-only columns — filtered
    by ``project_onto``; the separator is the shared attributes in canonical
    order.  A bound query derives it once per binding, the kernel once per
    call.
    """
    left_set = frozenset(left_attributes)
    joined = left_attributes + tuple(attribute for attribute in right_attributes
                                     if attribute not in left_set)
    kept = joined if project_onto is None else tuple(
        attribute for attribute in joined if attribute in project_onto)
    separator = tuple(sorted_nodes(left_set.intersection(right_attributes)))
    return (name or f"({left_name} ⋈ {right_name})", left_attributes,
            right_attributes, kept, joined, separator)


# --------------------------------------------------------------------------- #
# Semijoin
# --------------------------------------------------------------------------- #
def semijoin_blocks(left: ColumnBlock, right: ColumnBlock,
                    on: Optional[Iterable[Attribute]] = None) -> ColumnBlock:
    """``left ⋉ right`` by one batched key-id membership pass, memoised whole.

    Returns ``left`` itself when nothing is filtered out.
    """
    separator = _separator(left, right, on)
    if separator:
        check_one_generation((left, right))
    result, memo_hit = traced_membership_step(left, right, separator,
                                              active_column_backend())
    if memo_hit:
        count_keyset(hit=True)
    return result


def membership_step(left: ColumnBlock, right: ColumnBlock,
                    separator: Tuple[Attribute, ...],
                    backend) -> Tuple[ColumnBlock, Optional[bool]]:
    """One semijoin on a canonical separator: ``(result, memo hit)``.

    With no separator every row has a partner iff ``right`` has a row (no
    memo: ``None``).  Otherwise the outcome is looked up on ``left``'s
    storage under the backend, the separator and both sides' selection keys
    — the one key layout the kernels and the compiled programs share; a hit
    builds the result straight from it (a fixpoint hands back ``left``
    itself), a miss runs :func:`_filtered_selection`.  A hit is *not*
    counted here: the kernel counts its one, a program adds up its run's.
    """
    if not separator:
        return (left if len(right) > 0 else left.empty()), None
    key = ("semi", backend.name, separator, left.selection_bytes(),
           right.storage_token(), right.selection_bytes())
    outcome = left.derived_get(key)
    memo_hit = outcome is not None
    if not memo_hit:
        outcome = _filtered_selection(left, right, separator, backend, key)
    return (left if outcome is True else left.select(*outcome)), memo_hit


def traced_membership_step(left: ColumnBlock, right: ColumnBlock,
                           separator: Tuple[Attribute, ...],
                           backend) -> Tuple[ColumnBlock, Optional[bool]]:
    """:func:`membership_step` inside a ``kernel:semijoin`` span."""
    span = current_tracer().span("kernel:semijoin")
    with span:
        result, memo_hit = membership_step(left, right, separator, backend)
        if span.is_recording:
            span.set("backend", backend.name)
            span.set("batch", len(left))
            span.set("left_rows", len(left))
            span.set("right_rows", len(right))
            span.set("output_rows", len(result))
            span.set("outcome", "fixpoint" if result is left
                     else "partial" if len(result) else "empty")
            if memo_hit is not None:
                span.set("memo", "hit" if memo_hit else "miss")
    return result, memo_hit


def _filtered_selection(left: ColumnBlock, right: ColumnBlock,
                        separator: Tuple[Attribute, ...], backend,
                        key: Tuple) -> Union[bool, Tuple["array", bytes]]:
    """Compute and memoise one semijoin's outcome (the memo-miss path).

    All three outcomes are recorded under ``key``: ``True`` for a fixpoint
    (every row kept — the caller hands ``left`` itself back), otherwise the
    kept positions (empty for a dead end) *together with their selection
    key*, so the fresh but byte-identical selections a warm re-execution
    produces are answered by one lookup.  A miss is one membership pass of
    ``left``'s codes over ``right``'s (cached) membership structure, counted
    by that structure's cache.

    A key is hashed once per selection: the block built from a memoised
    outcome carries the stored key, so the next step's lookup holds the very
    bytes objects of the keys filed on the first run — their hashes are
    cached and tuple equality short-circuits on identity.
    """
    keep = backend.filter_membership(
        left.key_codes(separator), left.positions,
        right.prepared_key_set(separator, backend))
    outcome = True if len(keep) == len(left) else (keep, selection_key(keep))
    return left.derived_put(key, outcome)


# --------------------------------------------------------------------------- #
# Natural join
# --------------------------------------------------------------------------- #
def natural_join_blocks(left: ColumnBlock, right: ColumnBlock, *,
                        project_onto: Optional[FrozenSet[Attribute]] = None,
                        name: Optional[str] = None) -> ColumnBlock:
    """``left ⋈ right`` with fused projection, by batched probe and gather.

    The output attribute order is :func:`repro.relational.algebra.natural_join`'s
    rule — ``left``'s columns then ``right``'s right-only columns, filtered
    by ``project_onto`` (:func:`join_layout`).
    """
    check_one_generation((left, right))
    layout = join_layout(left.name, left.attributes, right.name,
                         right.attributes, project_onto, name)
    return traced_join_step(left, right, layout, active_column_backend())


def join_step(left: ColumnBlock, right: ColumnBlock, layout: JoinLayout,
              backend) -> ColumnBlock:
    """One natural join, answered from the whole-result memo when it can be.

    A re-execution over the same relations (a new database binding; a warm
    execute on the same binding runs no join at all) joins fresh but
    byte-identical selections of the same cached storages, and because hits
    return the *same* output block (same storage identity), every downstream
    join over that output hits too — that fold becomes cache lookups all
    the way up the join tree.
    """
    out_name, left_attributes, right_attributes, kept, joined, separator = layout
    key = ("join", backend.name, out_name, left_attributes, right_attributes,
           kept, left.selection_bytes(), right.storage_token(),
           right.selection_bytes())
    block = left.derived_get(key)
    if block is None:
        block = left.derived_put(key, _joined_block(left, right, separator, kept,
                                                    joined, out_name, backend))
    return block


def traced_join_step(left: ColumnBlock, right: ColumnBlock,
                     layout: JoinLayout, backend) -> ColumnBlock:
    """:func:`join_step` inside a ``kernel:join`` span."""
    span = current_tracer().span("kernel:join")
    with span:
        block = join_step(left, right, layout, backend)
        if span.is_recording:
            span.set("backend", backend.name)
            span.set("batch", len(left) if (not layout[5] or len(left) > len(right))
                     else len(right))
            span.set("left_rows", len(left))
            span.set("right_rows", len(right))
            span.set("output_rows", len(block))
    return block


def _joined_block(left: ColumnBlock, right: ColumnBlock,
                  separator: Tuple[Attribute, ...],
                  kept: Tuple[Attribute, ...], joined: Tuple[Attribute, ...],
                  out_name: str, backend) -> ColumnBlock:
    """Compute one natural-join output block (the memo-miss path)."""
    left_set = left.attribute_set
    if not separator:
        left_positions = array("q")
        right_positions = array("q")
        right_all = list(right.positions)
        for i in left.positions:
            left_positions.extend([i] * len(right_all))
            right_positions.extend(right_all)
    else:
        # Build the cached join table on the smaller side, probe it with
        # the other side's whole code array; the orientation only affects
        # the probe order, never the output.
        if len(left) <= len(right):
            table = left.join_table(separator, backend)
            left_positions, right_positions = backend.probe_table(
                table, right.key_codes(separator), right.positions)
        else:
            table = right.join_table(separator, backend)
            right_positions, left_positions = backend.probe_table(
                table, left.key_codes(separator), left.positions)

    columns: Dict[Attribute, array] = {}
    for attribute in kept:
        if attribute in left_set:
            columns[attribute] = backend.take(left.column(attribute),
                                              left_positions)
        else:
            columns[attribute] = backend.take(right.column(attribute),
                                              right_positions)
    # The explicit length carries the row count through 0-ary projections
    # (boolean sub-results), where there is no column left to measure.
    block = ColumnBlock._from_ids(out_name, kept, columns,
                                  len(left_positions), left.interner)
    if len(kept) != len(joined):
        block = block.distinct()
    return block


def merge_blocks_by_scheme(relations: Iterable[Relation],
                           schemes: Optional[Sequence[Edge]] = None,
                           lookups: Optional[List[int]] = None
                           ) -> Dict[Edge, ColumnBlock]:
    """One (cached) block per distinct scheme, same-scheme relations intersected.

    Relations over an identical scheme map to the same hypergraph edge, so
    tree walks and cluster materialisation see exactly one block per edge.
    This feeds the evaluator's vertex mapping and the cluster
    materialisation.  A scheme
    with a single relation — the overwhelmingly common case — passes its
    cached block through untouched.  Two blocks over one scheme intersect
    as a semijoin on the whole scheme, whose fixpoint contract returns the
    existing block itself when the second relation filters nothing, so no
    position vectors are re-materialised for identities.

    ``schemes`` (position-aligned with ``relations``) names each block's
    scheme where it is not the block's own attribute set: a projected
    cluster block stands for its whole quotient vertex.  Blocks filed under
    one scheme still share one attribute set (both export the same part).
    """
    grouped: Dict[Edge, ColumnBlock] = {}
    for index, relation in enumerate(relations):
        block = block_for(relation, lookups) if isinstance(relation, Relation) \
            else relation
        edge = block.attribute_set if schemes is None else schemes[index]
        existing = grouped.get(edge)
        if existing is None:
            grouped[edge] = block
        else:
            grouped[edge] = semijoin_blocks(existing, block,
                                            on=existing.attribute_set)
    return grouped
