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
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from .hypergraph import Edge
from .nodes import Node

__all__ = ["graham_survivors"]


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
