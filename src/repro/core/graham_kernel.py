"""The in-place GYO kernel: Graham reduction without sacred nodes, trace or rebuilds.

:func:`repro.core.graham.graham_reduction` is the paper-faithful reference:
every node or edge removal builds a fresh immutable
:class:`~repro.core.hypergraph.Hypergraph` and records a replayable step.
Callers that only need the verdict, or *which of the edges they passed in
are stuck*, run this kernel instead: it keeps one mutable node set per edge
and one occurrence count per node, fires the same two rules of Section 2 in
place, and returns the surviving original edges.

By Lemma 2.1 the surviving *trimmed* family is the same in whatever order the
rules fire.  Which original edge stands for a trimmed set is not (``ABX`` and
``ABY`` both trim to ``AB``; either absorbs the other), so the schedule is
fixed: node removal runs eagerly, then the first edge — in the order given —
whose trimmed node set lies inside another live edge's is removed.  That is
the edge-level "ear removal" formulation of GYO, which makes the survivors
reproducible and lets cover search read ears and cyclic core off one call.

:func:`masks_acyclic` is the verdict alone, bit-parallel: each edge is an
integer whose set bits are its nodes, node removal clears every bit set in
exactly one live mask (two running ORs find them) and ear removal drops a
mask ``m`` inside another live ``n`` (``m & ~n == 0``).  Cover search asks it
once per candidate partition of a cyclic core, where only the verdict
matters, so by Lemma 2.1 the removals may fire in any order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from .hypergraph import Edge
from .nodes import Node

__all__ = ["graham_survivors", "masks_acyclic"]


def graham_survivors(edges: Sequence[Edge]) -> Tuple[Edge, ...]:
    """The edges of ``edges`` that GYO reduction cannot eliminate, in the order given.

    At most one edge survives exactly when the family is acyclic (a lone
    survivor has lost all its nodes to node removal — the reference's "single
    empty edge"); two or more survivors are the cyclic core, every other edge
    an ear.  Duplicate and empty edges are ordinary inputs: each is inside
    another edge, so each is eliminated while another edge remains.
    """
    trimmed: List[Set[Node]] = [set(edge) for edge in edges]
    occurrences: Dict[Node, int] = {}
    for members in trimmed:
        for node in members:
            occurrences[node] = occurrences.get(node, 0) + 1
    for members in trimmed:
        members.difference_update(
            [node for node in members if occurrences[node] == 1])
    live = list(range(len(edges)))
    start = 0
    while len(live) > 1:
        for position in range(start, len(live)):
            candidate = trimmed[live[position]]
            witness = next((index for index in live
                            if candidate <= trimmed[index]
                            and index != live[position]), None)
            if witness is not None:
                break
        else:
            break
        del live[position]
        # Every node of the removed edge is also in its witness, so a node
        # left in one edge is left in the witness: node removal fires there.
        for node in candidate:
            occurrences[node] -= 1
            if occurrences[node] == 1:
                trimmed[witness].discard(node)
        # Only the witness changed, so only it can have become removable
        # among the edges already passed over.
        start = min(position, live.index(witness))
    return tuple(edges[index] for index in live)


def masks_acyclic(masks: Iterable[int]) -> bool:
    """``True`` when the edges given as node bitmasks reduce to at most one edge.

    The same verdict as ``len(graham_survivors(edges)) <= 1`` for the edges
    the masks encode (any bit numbering of the nodes): empty, duplicate and
    nested masks are ears like any other.
    """
    # Equal masks absorb each other, so each is kept once.
    live = set(masks)
    while len(live) > 1:
        once = twice = 0
        for mask in live:
            twice |= once & mask
            once |= mask
        # Node removal keeps only the bits two or more live masks share;
        # ear removal then keeps only the maximal masks.  Widest first, a
        # mask inside any other lies inside one already kept.
        kept: List[int] = []
        for mask in sorted({mask & twice for mask in live},
                           key=int.bit_count, reverse=True):
            for other in kept:
                if mask & ~other == 0:
                    break
            else:
                kept.append(mask)
        if len(kept) == len(live):
            return False
        live = kept
    return True
