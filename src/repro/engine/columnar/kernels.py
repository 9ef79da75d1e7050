"""Batched semijoin / antijoin / natural-join kernels over typed column blocks.

These are the engine's physical operators.  They compute the same relations
as :func:`repro.relational.algebra.semijoin` / ``antijoin`` /
``natural_join`` but move whole typed position vectors per call through the
active :mod:`column-buffer backend <repro.engine.columnar.buffers>` instead
of probing rows one at a time:

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

A semijoin/antijoin that filters nothing returns the *left block itself*,
so reducer fixpoints allocate nothing and the proof-of-reduction check can
test stability with ``is``.  Every kernel span
records the active backend and its batch size.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple, Union

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
    "antijoin_blocks",
    "natural_join_blocks",
    "intersect_blocks",
    "merge_blocks_by_scheme",
]


def shared_block_attributes(left: ColumnBlock, right: ColumnBlock) -> Tuple[Attribute, ...]:
    """The separator: attributes common to both blocks, in canonical order."""
    return tuple(sorted_nodes(left.attribute_set & right.attribute_set))


def _separator(left: ColumnBlock, right: ColumnBlock,
               on: Optional[Iterable[Attribute]]) -> Tuple[Attribute, ...]:
    """The effective separator, canonicalised so key dictionaries are shared.

    An ``on`` override must be a subset of both blocks' schemes.  The
    attribute order is canonical — the grouped key encoding is cached per attribute *tuple*, and key-set membership is
    order-invariant anyway.  A ``tuple`` is taken as already canonical (the
    compiled reducer hands over each step's, sorted once at compile time);
    any other iterable is sorted.
    """
    if on is None:
        return shared_block_attributes(left, right)
    separator = on if type(on) is tuple else tuple(sorted_nodes(on))
    for attribute in separator:
        if attribute not in left.attribute_set or attribute not in right.attribute_set:
            raise UnknownAttributeError(attribute)
    return separator


def _same_generation(left: ColumnBlock, right: ColumnBlock) -> None:
    """Reject id comparisons across interner generations (after a cache clear)."""
    if left.interner is not right.interner:
        raise SchemaError(
            "cannot combine column blocks encoded under different "
            "column-cache generations; re-encode after clear_column_caches()")


def semijoin_blocks(left: ColumnBlock, right: ColumnBlock,
                    on: Optional[Iterable[Attribute]] = None) -> ColumnBlock:
    """``left ⋉ right`` by one batched key-id membership pass, memoised whole.

    Returns ``left`` itself when nothing is filtered out.
    """
    return _membership_filter("kernel:semijoin", left, right, on, negate=False)


def antijoin_blocks(left: ColumnBlock, right: ColumnBlock,
                    on: Optional[Iterable[Attribute]] = None) -> ColumnBlock:
    """``left ▷ right`` — the selected rows of ``left`` with no partner in ``right``."""
    return _membership_filter("kernel:antijoin", left, right, on, negate=True)


def _membership_filter(span_name: str, left: ColumnBlock, right: ColumnBlock,
                       on: Optional[Iterable[Attribute]], *,
                       negate: bool) -> ColumnBlock:
    """The (anti)semijoin kernel: ``left``'s rows with (``negate``: without) a partner."""
    span = current_tracer().span(span_name)
    with span:
        backend = active_column_backend()
        separator = _separator(left, right, on)
        memo_hit = None
        if not separator:
            # No shared attribute: every row has a partner iff ``right`` has a row.
            result = left if (len(right) > 0) != negate else left.empty()
        else:
            _same_generation(left, right)
            outcome, memo_hit = _filtered_selection(left, right, separator,
                                                    backend, negate=negate)
            result = left if outcome is True else left.select(*outcome)
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
        return result


def _filtered_selection(left: ColumnBlock, right: ColumnBlock,
                        separator: Tuple[Attribute, ...], backend, *,
                        negate: bool) -> Tuple[Union[bool, Tuple["array", bytes]], bool]:
    """The memoised outcome of one (anti)semijoin, and whether the memo held it.

    All three outcomes are recorded: ``True`` for a fixpoint (every row
    kept — the caller hands ``left`` itself back), otherwise the kept
    positions (empty for a dead end) *together with their selection key*.
    Keyed by both sides' storage identity and selection keys, so the fresh
    but byte-identical selections a warm re-execution produces are answered
    by one lookup; a miss is one membership pass of ``left``'s codes over
    ``right``'s (cached) membership structure.  Counted as ``keyset_hits``
    here and, on a miss, by the structure's own cache.

    A key is hashed once per selection: the block built from a memoised
    outcome carries the stored key, so the next step's lookup holds the very
    bytes objects of the keys filed on the first run — their hashes are
    cached and tuple equality short-circuits on identity.
    """
    key = ("semi", negate, backend.name, separator, left.selection_bytes(),
           right.storage_token(), right.selection_bytes())
    outcome = left.derived_get(key)
    if outcome is not None:
        count_keyset(hit=True)
        return outcome, True
    keep = backend.filter_membership(
        left.key_codes(separator), left.positions,
        right.prepared_key_set(separator, backend), negate=negate)
    outcome = True if len(keep) == len(left) else (keep, selection_key(keep))
    return left.derived_put(key, outcome), False


def natural_join_blocks(left: ColumnBlock, right: ColumnBlock, *,
                        project_onto: Optional[FrozenSet[Attribute]] = None,
                        name: Optional[str] = None) -> ColumnBlock:
    """``left ⋈ right`` with fused projection, by batched probe and gather.

    The output attribute order is :func:`repro.relational.algebra.natural_join`'s
    rule — ``left``'s columns then ``right``'s right-only columns, filtered
    by ``project_onto``.
    """
    span = current_tracer().span("kernel:join")
    with span:
        backend = active_column_backend()
        joined_attributes = list(left.attributes)
        left_set = left.attribute_set
        for attribute in right.attributes:
            if attribute not in left_set:
                joined_attributes.append(attribute)
        if project_onto is not None:
            kept = [a for a in joined_attributes if a in project_onto]
        else:
            kept = joined_attributes
        out_name = name or f"({left.name} ⋈ {right.name})"

        _same_generation(left, right)
        separator = shared_block_attributes(left, right)
        batch = len(left) if (not separator or len(left) > len(right)) \
            else len(right)
        # The whole-result cache: a warm re-execution joins fresh but
        # byte-identical selections of the same cached storages, and because
        # hits return the *same* output block (same storage identity), every
        # downstream join over that output hits too — the warm fold becomes
        # cache lookups all the way up the join tree.
        cache_key = ("join", backend.name, out_name,
                     left.attributes, right.attributes, tuple(kept),
                     left.selection_bytes(),
                     right.storage_token(), right.selection_bytes())
        block = left.derived_get(cache_key)
        if block is None:
            block = left.derived_put(
                cache_key, _joined_block(left, right, separator, kept,
                                         joined_attributes, out_name, backend))
        if span.is_recording:
            span.set("backend", backend.name)
            span.set("batch", batch)
            span.set("left_rows", len(left))
            span.set("right_rows", len(right))
            span.set("output_rows", len(block))
        return block


def _joined_block(left: ColumnBlock, right: ColumnBlock,
                  separator: Tuple[Attribute, ...],
                  kept: Iterable[Attribute], joined_attributes: list,
                  out_name: str, backend) -> ColumnBlock:
    """Compute one natural-join output block (the cache-miss path)."""
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
    block = ColumnBlock._from_ids(out_name, tuple(kept), columns,
                                  len(left_positions), left.interner)
    if len(kept) != len(joined_attributes):
        block = block.distinct()
    return block


def intersect_blocks(left: ColumnBlock, right: ColumnBlock) -> ColumnBlock:
    """The intersection of two same-scheme blocks (keeps ``left``'s name/order)."""
    return semijoin_blocks(left, right, on=left.attribute_set)


def merge_blocks_by_scheme(relations: Iterable[Relation],
                           schemes: Optional[Sequence[Edge]] = None
                           ) -> Dict[Edge, ColumnBlock]:
    """One (cached) block per distinct scheme, same-scheme relations intersected.

    Relations over an identical scheme map to the same hypergraph edge, so
    tree walks and cluster materialisation see exactly one block per edge.
    This feeds the evaluator's vertex mapping and the cluster
    materialisation.  A scheme
    with a single relation — the overwhelmingly common case — passes its
    cached block through untouched, and the intersect path's fixpoint
    contract returns the existing block itself when the second relation
    filters nothing, so no position vectors are re-materialised for identities.

    ``schemes`` (position-aligned with ``relations``) names each block's
    scheme where it is not the block's own attribute set: a projected
    cluster block stands for its whole quotient vertex.  Blocks filed under
    one scheme still share one attribute set (both export the same part).
    """
    grouped: Dict[Edge, ColumnBlock] = {}
    for index, relation in enumerate(relations):
        block = block_for(relation) if isinstance(relation, Relation) else relation
        edge = block.attribute_set if schemes is None else schemes[index]
        existing = grouped.get(edge)
        if existing is None:
            grouped[edge] = block
        else:
            grouped[edge] = intersect_blocks(existing, block)
    return grouped
