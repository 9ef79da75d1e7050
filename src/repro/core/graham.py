"""Graham reduction (GYO reduction) with sacred nodes — Section 2 of the paper.

The Graham reduction of a hypergraph ``H`` applies two operations until neither
applies:

(1) *Node removal* — if a node ``n`` appears in only one edge, delete ``n``
    from the node set and from that edge.  (The result may not be reduced.)
(2) *Edge removal* — delete an edge ``E`` if there is another edge ``F`` with
    ``E ⊆ F``.

The paper's modification, written ``GR(H, X)``, designates a set ``X`` of
*sacred* nodes that node removal may never delete.  Lemma 2.1 states that the
rules form a finite Church–Rosser system, so the result is independent of the
order in which applicable rules are fired; :func:`check_confluence` verifies
this empirically by replaying randomised orders.

Graham reduction with no sacred nodes is the classical GYO test: a hypergraph
reduces to nothing (no edges, or a single empty edge) if and only if it is
acyclic — see :mod:`repro.core.acyclicity`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import HypergraphError
from .hypergraph import Edge, Hypergraph
from .nodes import Node, NodeSet, edge_sort_key, format_node_set, sorted_nodes

__all__ = [
    "NodeRemoval",
    "EdgeRemoval",
    "ReductionStep",
    "ReductionTrace",
    "GrahamResult",
    "applicable_node_removals",
    "applicable_edge_removals",
    "applicable_steps",
    "apply_step",
    "graham_reduction",
    "graham_reduce",
    "gyo_reduction",
    "reduces_to_nothing",
    "random_order_reduction",
    "check_confluence",
]


@dataclass(frozen=True)
class NodeRemoval:
    """A single application of the node-removal rule.

    ``node`` appeared only in ``edge`` (and was not sacred) and was deleted
    from the node set and from ``edge``.
    """

    node: Node
    edge: Edge

    @property
    def kind(self) -> str:
        """The step kind, ``"node"``."""
        return "node"

    def describe(self) -> str:
        """A one-line human-readable rendering of the step."""
        return f"remove node {self.node} from edge {format_node_set(self.edge)}"


@dataclass(frozen=True)
class EdgeRemoval:
    """A single application of the edge-removal rule.

    ``edge`` was deleted because it was a subset of ``witness`` (a distinct
    edge still present in the hypergraph).
    """

    edge: Edge
    witness: Edge

    @property
    def kind(self) -> str:
        """The step kind, ``"edge"``."""
        return "edge"

    def describe(self) -> str:
        """A one-line human-readable rendering of the step."""
        return (f"remove edge {format_node_set(self.edge)} "
                f"(subset of {format_node_set(self.witness)})")


ReductionStep = NodeRemoval | EdgeRemoval


@dataclass(frozen=True)
class ReductionTrace:
    """The ordered sequence of steps taken by a Graham reduction.

    The trace is replayable: ``trace.replay(start)`` re-applies the steps to
    the starting hypergraph and returns the same result, which the tests use
    to validate that traces are faithful.
    """

    start: Hypergraph
    steps: Tuple[ReductionStep, ...]
    sacred: NodeSet = frozenset()

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[ReductionStep]:
        return iter(self.steps)

    @property
    def node_removals(self) -> Tuple[NodeRemoval, ...]:
        """Only the node-removal steps, in order."""
        return tuple(step for step in self.steps if isinstance(step, NodeRemoval))

    @property
    def edge_removals(self) -> Tuple[EdgeRemoval, ...]:
        """Only the edge-removal steps, in order."""
        return tuple(step for step in self.steps if isinstance(step, EdgeRemoval))

    def removed_nodes(self) -> NodeSet:
        """All nodes deleted by node removal over the whole trace."""
        return frozenset(step.node for step in self.node_removals)

    def replay(self, hypergraph: Optional[Hypergraph] = None) -> Hypergraph:
        """Re-apply the recorded steps, starting from ``hypergraph`` (default: the trace's start)."""
        current = hypergraph if hypergraph is not None else self.start
        for step in self.steps:
            current = apply_step(current, step)
        return current

    def describe(self) -> str:
        """A multi-line rendering of the whole trace."""
        lines = [f"Graham reduction of {self.start} with sacred {format_node_set(self.sacred)}"]
        for index, step in enumerate(self.steps, start=1):
            lines.append(f"  {index:3d}. {step.describe()}")
        if not self.steps:
            lines.append("  (no steps applicable)")
        return "\n".join(lines)


@dataclass(frozen=True)
class GrahamResult:
    """The outcome of a Graham reduction: the reduced hypergraph plus its trace."""

    hypergraph: Hypergraph
    trace: ReductionTrace

    @property
    def sacred(self) -> NodeSet:
        """The sacred node set the reduction was run with."""
        return self.trace.sacred

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """The edges of the reduced hypergraph."""
        return self.hypergraph.edges

    def reduced_to_nothing(self) -> bool:
        """``True`` when nothing (or only a single empty edge) remains.

        With an empty sacred set this is exactly the GYO acyclicity criterion.
        """
        return reduces_to_nothing(self.hypergraph)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.hypergraph.edges)


# --------------------------------------------------------------------------- #
# Step enumeration and application
# --------------------------------------------------------------------------- #
def applicable_node_removals(hypergraph: Hypergraph,
                             sacred: Iterable[Node] = ()) -> Tuple[NodeRemoval, ...]:
    """All currently applicable node removals, in a deterministic order."""
    sacred_set = frozenset(sacred)
    removals: List[NodeRemoval] = []
    for node in sorted_nodes(hypergraph.nodes):
        if node in sacred_set:
            continue
        containing = hypergraph.edges_containing(node)
        if len(containing) == 1:
            (edge,) = containing
            removals.append(NodeRemoval(node=node, edge=edge))
    return tuple(removals)


def applicable_edge_removals(hypergraph: Hypergraph) -> Tuple[EdgeRemoval, ...]:
    """All currently applicable edge removals, in a deterministic order.

    An edge qualifies when it is a (necessarily proper, since edges are stored
    as a set family) subset of another edge.  The lexicographically smallest
    witnessing superset is recorded.
    """
    removals: List[EdgeRemoval] = []
    edges = hypergraph.edges
    for edge in edges:
        witnesses = [other for other in edges if other != edge and edge <= other]
        if witnesses:
            witness = min(witnesses, key=edge_sort_key)
            removals.append(EdgeRemoval(edge=edge, witness=witness))
    return tuple(removals)


def applicable_steps(hypergraph: Hypergraph,
                     sacred: Iterable[Node] = ()) -> Tuple[ReductionStep, ...]:
    """All currently applicable steps (node removals first, then edge removals)."""
    return applicable_node_removals(hypergraph, sacred) + applicable_edge_removals(hypergraph)


def apply_step(hypergraph: Hypergraph, step: ReductionStep) -> Hypergraph:
    """Apply one reduction step to ``hypergraph`` and return the new hypergraph.

    The step must be applicable to the hypergraph as given; otherwise a
    :class:`HypergraphError` is raised.  (Because of confluence, a step
    computed on one hypergraph may legitimately be replayed on another, e.g.
    when exchanging the order of two independent steps — the validity check is
    re-done against the hypergraph actually supplied.)
    """
    if isinstance(step, NodeRemoval):
        containing = hypergraph.edges_containing(step.node)
        if len(containing) != 1:
            raise HypergraphError(
                f"node removal of {step.node!r} is not applicable: the node appears in "
                f"{len(containing)} edges")
        (edge,) = containing
        return hypergraph.remove_node_from_edge(step.node, edge)
    if isinstance(step, EdgeRemoval):
        if not hypergraph.has_edge(step.edge):
            raise HypergraphError(
                f"edge removal of {format_node_set(step.edge)} is not applicable: "
                "the edge is not present")
        has_witness = any(other != step.edge and frozenset(step.edge) <= other
                          for other in hypergraph.edges)
        if not has_witness:
            raise HypergraphError(
                f"edge removal of {format_node_set(step.edge)} is not applicable: "
                "no containing edge remains")
        return hypergraph.remove_edge(step.edge)
    raise TypeError(f"unknown reduction step {step!r}")


# --------------------------------------------------------------------------- #
# Full reductions
# --------------------------------------------------------------------------- #
def graham_reduction(hypergraph: Hypergraph, sacred: Iterable[Node] = (),
                     *, prefer: str = "node") -> GrahamResult:
    """Compute ``GR(H, X)``: apply node and edge removal until neither applies.

    Parameters
    ----------
    hypergraph:
        The hypergraph to reduce.
    sacred:
        The set ``X`` of nodes that node removal may not delete.  Sacred nodes
        need not be nodes of the hypergraph (extra ones are ignored), which is
        convenient when a caller passes query attributes directly.
    prefer:
        ``"node"`` (default) fires all applicable node removals before trying
        edge removals in each round, ``"edge"`` does the opposite.  By Lemma
        2.1 the result is the same either way; the option exists so that the
        confluence experiments can drive both schedules deliberately.

    Returns
    -------
    GrahamResult
        The reduced hypergraph together with a replayable trace.
    """
    if prefer not in {"node", "edge"}:
        raise ValueError("prefer must be 'node' or 'edge'")
    sacred_set = frozenset(sacred)
    current = hypergraph
    steps: List[ReductionStep] = []
    while True:
        if prefer == "node":
            candidates: Sequence[ReductionStep] = applicable_node_removals(current, sacred_set)
            if not candidates:
                candidates = applicable_edge_removals(current)
        else:
            candidates = applicable_edge_removals(current)
            if not candidates:
                candidates = applicable_node_removals(current, sacred_set)
        if not candidates:
            break
        step = candidates[0]
        current = apply_step(current, step)
        steps.append(step)
    trace = ReductionTrace(start=hypergraph, steps=tuple(steps), sacred=sacred_set)
    return GrahamResult(hypergraph=current, trace=trace)


def graham_reduce(hypergraph: Hypergraph, sacred: Iterable[Node] = ()) -> Hypergraph:
    """Convenience wrapper returning only the reduced hypergraph ``GR(H, X)``."""
    return graham_reduction(hypergraph, sacred).hypergraph


def gyo_reduction(hypergraph: Hypergraph) -> GrahamResult:
    """The classical GYO reduction: Graham reduction with no sacred nodes."""
    return graham_reduction(hypergraph, ())


def reduces_to_nothing(hypergraph: Hypergraph) -> bool:
    """``True`` when a hypergraph counts as "reduced to nothing".

    Following the convention of Graham (1979) and Beeri–Fagin–Maier–Yannakakis,
    a fully successful reduction leaves either no edges at all or a single
    empty edge (the last edge loses all its nodes to node removal but has no
    other edge to be absorbed into).
    """
    edges = hypergraph.edges
    if not edges:
        return True
    return len(edges) == 1 and not edges[0]


def random_order_reduction(hypergraph: Hypergraph, sacred: Iterable[Node] = (),
                           rng: Optional[random.Random] = None) -> GrahamResult:
    """Run a Graham reduction firing applicable steps in a random order.

    Used by :func:`check_confluence` to exercise Lemma 2.1: every order of
    application yields the same ``GR(H, X)``.
    """
    generator = rng if rng is not None else random.Random()
    sacred_set = frozenset(sacred)
    current = hypergraph
    steps: List[ReductionStep] = []
    while True:
        candidates = list(applicable_steps(current, sacred_set))
        if not candidates:
            break
        step = generator.choice(candidates)
        current = apply_step(current, step)
        steps.append(step)
    trace = ReductionTrace(start=hypergraph, steps=tuple(steps), sacred=sacred_set)
    return GrahamResult(hypergraph=current, trace=trace)


def check_confluence(hypergraph: Hypergraph, sacred: Iterable[Node] = (), *,
                     trials: int = 10, seed: int = 0) -> bool:
    """Empirically verify Lemma 2.1 on one hypergraph.

    Runs the deterministic reduction under both scheduling preferences plus
    ``trials`` randomised-order reductions and checks that every run produces
    the same hypergraph (same node set and same edge family).
    """
    reference = graham_reduction(hypergraph, sacred, prefer="node").hypergraph
    alternative = graham_reduction(hypergraph, sacred, prefer="edge").hypergraph
    if alternative != reference:
        return False
    rng = random.Random(seed)
    for _ in range(trials):
        randomized = random_order_reduction(hypergraph, sacred, rng=rng).hypergraph
        if randomized != reference:
            return False
    return True
