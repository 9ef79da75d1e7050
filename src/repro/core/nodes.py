"""Node and node-set utilities shared by the hypergraph modules.

The paper treats nodes as abstract elements; in this library a node may be any
hashable value, although strings are used throughout the examples (nodes double
as relational *attributes* in the Section 7 interpretation).  This module
provides small, well-tested helpers for normalising node collections and for
ordering them deterministically so that every algorithm in the library produces
reproducible output regardless of Python's hash randomisation.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Hashable, Iterable, Sequence, Tuple

Node = Hashable
NodeSet = FrozenSet[Node]

__all__ = [
    "Node",
    "NodeSet",
    "as_node_set",
    "node_sort_key",
    "sorted_nodes",
    "edge_sort_key",
    "format_node_set",
    "format_edge_set",
    "node_sets_equal",
    "is_subset_of_any",
    "maximal_sets",
    "minimal_sets",
    "powerset",
]


def as_node_set(nodes: Iterable[Node] | Node) -> NodeSet:
    """Normalise ``nodes`` into a frozenset of nodes.

    Accepts any iterable of hashable values.  As a convenience a single string
    is treated as a collection of single-character nodes **only if** it is
    passed through :func:`parse_compact_nodes`; here a plain string is treated
    as one node, which avoids a classic source of bugs ("ABC" silently becoming
    three nodes).  Use :func:`parse_compact_nodes` for the compact notation.
    """
    if isinstance(nodes, (str, bytes)):
        return frozenset({nodes})
    if isinstance(nodes, frozenset):
        return nodes
    return frozenset(nodes)


def parse_compact_nodes(spec: str) -> NodeSet:
    """Parse the compact single-letter notation used in the paper's figures.

    ``"ABC"`` becomes ``{"A", "B", "C"}``.  Whitespace and commas are ignored
    so ``"A, B, C"`` parses to the same set.
    """
    cleaned = spec.replace(",", " ").split()
    if len(cleaned) > 1:
        return frozenset(cleaned)
    return frozenset(spec.replace(",", "").replace(" ", ""))


__all__.append("parse_compact_nodes")


def node_sort_key(node: Node) -> Tuple[str, str]:
    """Return a total-order key usable for heterogeneous node values.

    Nodes are ordered first by the name of their type and then by their string
    representation, which yields a deterministic order even when a hypergraph
    mixes, say, integers and strings.
    """
    return (type(node).__name__, repr(node) if not isinstance(node, str) else node)


def sorted_nodes(nodes: Iterable[Node]) -> Tuple[Node, ...]:
    """Return ``nodes`` as a tuple sorted by :func:`node_sort_key`."""
    return tuple(sorted(nodes, key=node_sort_key))


def edge_sort_key(nodes: Iterable[Node]) -> Tuple[Tuple[str, str], ...]:
    """Return a total-order key for node *sets* (edges) of any node types.

    The key is the ascending tuple of the members' :func:`node_sort_key` keys.
    On edges of strings it orders exactly as the tuple of
    :func:`sorted_nodes` does; unlike that tuple it never compares an
    ``int`` with a ``str``, so every edge ordering in the library is defined
    for mixed node types too.
    """
    return tuple(sorted(map(node_sort_key, nodes)))


def format_node_set(nodes: Iterable[Node]) -> str:
    """Render a node set in the compact ``{A, B, C}`` style used by the paper."""
    ordered = sorted_nodes(nodes)
    inner = ", ".join(str(node) for node in ordered)
    return "{" + inner + "}"


def format_edge_set(edges: Iterable[Iterable[Node]]) -> str:
    """Render a collection of edges as ``{{A, B}, {B, C}}`` deterministically."""
    rendered = sorted(format_node_set(edge) for edge in edges)
    return "{" + ", ".join(rendered) + "}"


def node_sets_equal(left: Iterable[Iterable[Node]], right: Iterable[Iterable[Node]]) -> bool:
    """Return ``True`` when two collections of node sets are equal as set families."""
    return {frozenset(item) for item in left} == {frozenset(item) for item in right}


def is_subset_of_any(candidate: Iterable[Node], family: Iterable[Iterable[Node]],
                     *, proper: bool = False) -> bool:
    """Return ``True`` if ``candidate`` is a subset of some member of ``family``.

    With ``proper=True`` only proper subsets count, which is the test used by
    the edge-removal rule of Graham reduction.
    """
    candidate_set = frozenset(candidate)
    for member in family:
        member_set = frozenset(member)
        if candidate_set <= member_set:
            if not proper or candidate_set != member_set:
                return True
    return False


def maximal_sets(family: Iterable[Iterable[Node]]) -> Tuple[NodeSet, ...]:
    """Return the inclusion-maximal members of ``family`` (deduplicated).

    This is exactly the operation that turns an arbitrary family of partial
    edges into a *reduced* hypergraph's edge set.
    """
    unique = {frozenset(member) for member in family}
    result = []
    for member in unique:
        if not any(member < other for other in unique):
            result.append(member)
    return tuple(sorted(result, key=edge_sort_key))


def minimal_sets(family: Iterable[Iterable[Node]]) -> Tuple[NodeSet, ...]:
    """Return the inclusion-minimal members of ``family`` (deduplicated)."""
    unique = {frozenset(member) for member in family}
    result = []
    for member in unique:
        if not any(other < member for other in unique):
            result.append(member)
    return tuple(sorted(result, key=edge_sort_key))


def powerset(nodes: Iterable[Node], *, include_empty: bool = True,
             max_size: int | None = None) -> Tuple[NodeSet, ...]:
    """Enumerate subsets of ``nodes`` in a deterministic order.

    Used by the brute-force acyclicity check (the paper's definition quantifies
    over *every* node-generated set of edges) and by exhaustive small-universe
    tests.  ``max_size`` truncates the enumeration to subsets of bounded size.
    """
    ordered = sorted_nodes(nodes)
    subsets: list[NodeSet] = []
    total = 1 << len(ordered)
    for mask in range(total):
        subset = frozenset(ordered[i] for i in range(len(ordered)) if mask & (1 << i))
        if not include_empty and not subset:
            continue
        if max_size is not None and len(subset) > max_size:
            continue
        subsets.append(subset)
    subsets.sort(key=lambda s: (len(s), sorted_nodes(s)))
    return tuple(subsets)


def symmetric_difference_size(left: Iterable[Node], right: Iterable[Node]) -> int:
    """Return ``|left Δ right|`` — a convenience used by generators and analysis."""
    return len(frozenset(left) ^ frozenset(right))


__all__.append("symmetric_difference_size")
