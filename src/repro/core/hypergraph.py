"""The :class:`Hypergraph` data structure (Section 1 of the paper).

A hypergraph ``H = (N, E)`` is a finite set of nodes ``N`` together with a
finite set ``E`` of edges, each of which is a subset of ``N``.  The paper
assumes hypergraphs are *reduced* (no edge is a subset of another) by default
but explicitly introduces non-reduced ones, e.g. as intermediate results of
Graham reduction and as raw node-generated families of partial edges.  This
class therefore stores edges exactly as given and exposes :meth:`reduce` /
:attr:`is_reduced` rather than silently normalising.

Instances are immutable and hashable; every mutation-style operation returns a
new hypergraph, which is what lets the Church–Rosser experiments of Lemma 2.1
replay alternative reduction orders from a shared starting point.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from ..exceptions import HypergraphError, UnknownEdgeError, UnknownNodeError
from .nodes import (
    Node,
    NodeSet,
    edge_sort_key,
    format_node_set,
    maximal_sets,
    node_sort_key,
    parse_compact_nodes,
    sorted_nodes,
)

__all__ = ["Hypergraph", "Edge"]

Edge = NodeSet
"""An edge is simply a frozenset of nodes."""


def _normalise_edge(edge: Iterable[Node]) -> Edge:
    if isinstance(edge, (str, bytes)):
        # A bare string such as "ABC" is *not* implicitly exploded; use
        # Hypergraph.from_compact for the single-letter figure notation.
        raise HypergraphError(
            f"edge {edge!r} is a string; pass an iterable of nodes or use "
            "Hypergraph.from_compact() for the compact single-letter notation"
        )
    return frozenset(edge)


class Hypergraph:
    """An immutable hypergraph ``H = (N, E)``.

    Parameters
    ----------
    edges:
        An iterable of edges, each an iterable of hashable nodes.  Duplicate
        edges are collapsed (the paper's edge sets are sets).  Empty edges are
        permitted because they legitimately arise during Graham reduction.
    nodes:
        Optional extra nodes.  The node set of the hypergraph is the union of
        all edges plus these isolated nodes.  The paper's hypergraphs have no
        isolated nodes, but node-generated hypergraphs are defined to have the
        generating node set as their node set, which may strictly contain the
        union of the partial edges.
    name:
        Optional human-readable name used in reprs and reports.

    Examples
    --------
    >>> h = Hypergraph.from_compact(["ABC", "CDE", "AEF", "ACE"], name="Fig. 1")
    >>> sorted(len(e) for e in h.edges)
    [3, 3, 3, 3]
    >>> h.is_reduced
    True
    """

    __slots__ = ("_edges", "_nodes", "_name", "_incidence", "_hash")

    def __init__(self, edges: Iterable[Iterable[Node]] = (),
                 nodes: Iterable[Node] = (),
                 name: Optional[str] = None) -> None:
        normalised = [_normalise_edge(edge) for edge in edges]
        unique: Dict[Edge, None] = {}
        for edge in normalised:
            unique.setdefault(edge, None)
        ordered = sorted(unique, key=edge_sort_key)
        self._edges: Tuple[Edge, ...] = tuple(ordered)
        node_universe = set()
        for edge in self._edges:
            node_universe.update(edge)
        node_universe.update(nodes)
        self._nodes: NodeSet = frozenset(node_universe)
        self._name = name
        incidence: Dict[Node, set] = {node: set() for node in self._nodes}
        for edge in self._edges:
            for node in edge:
                incidence[node].add(edge)
        self._incidence: Dict[Node, FrozenSet[Edge]] = {
            node: frozenset(edges_of) for node, edges_of in incidence.items()
        }
        self._hash: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_compact(cls, edges: Iterable[str], nodes: str | Iterable[Node] = (),
                     name: Optional[str] = None) -> "Hypergraph":
        """Build a hypergraph from the paper's compact notation.

        Each edge is a string of single-character node names (``"ABC"``) or a
        comma/space separated list of longer names (``"Course, Teacher"``).

        >>> Hypergraph.from_compact(["AB", "BC"]).num_edges
        2
        """
        parsed_edges = [parse_compact_nodes(edge) for edge in edges]
        if isinstance(nodes, str):
            extra_nodes: Iterable[Node] = parse_compact_nodes(nodes) if nodes else ()
        else:
            extra_nodes = nodes
        return cls(parsed_edges, nodes=extra_nodes, name=name)

    @classmethod
    def from_named_edges(cls, named_edges: Mapping[str, Iterable[Node]],
                         name: Optional[str] = None) -> "Hypergraph":
        """Build a hypergraph from a mapping of edge names to node iterables.

        Edge names are not retained by the hypergraph itself (edges are sets);
        the relational layer keeps names in :class:`repro.relational.schema.DatabaseSchema`.
        """
        return cls(named_edges.values(), name=name)

    @classmethod
    def empty(cls, name: Optional[str] = None) -> "Hypergraph":
        """The hypergraph with no nodes and no edges."""
        return cls((), (), name=name)

    @classmethod
    def single_edge(cls, edge: Iterable[Node], name: Optional[str] = None) -> "Hypergraph":
        """A hypergraph consisting of exactly one edge."""
        return cls([edge], name=name)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> NodeSet:
        """The node set ``N``."""
        return self._nodes

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """The edges in a deterministic order (sorted by their node names)."""
        return self._edges

    @property
    def edge_set(self) -> FrozenSet[Edge]:
        """The edges as a frozenset of frozensets."""
        return frozenset(self._edges)

    @property
    def name(self) -> Optional[str]:
        """Optional human-readable name."""
        return self._name

    @property
    def num_nodes(self) -> int:
        """``|N|``."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """``|E|``."""
        return len(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._edges)

    def __contains__(self, item: object) -> bool:
        """``edge in h`` tests edge membership; ``node in h.nodes`` tests nodes."""
        if isinstance(item, (set, frozenset)):
            return frozenset(item) in self.edge_set
        return item in self._nodes

    def has_node(self, node: Node) -> bool:
        """Return ``True`` if ``node`` belongs to the node set."""
        return node in self._nodes

    def has_edge(self, edge: Iterable[Node]) -> bool:
        """Return ``True`` if ``edge`` (as a set) is an edge of the hypergraph."""
        return frozenset(edge) in self.edge_set

    def edges_containing(self, node: Node) -> FrozenSet[Edge]:
        """Return the set of edges containing ``node``.

        Raises :class:`UnknownNodeError` for nodes outside the hypergraph.
        """
        try:
            return self._incidence[node]
        except KeyError:
            raise UnknownNodeError(node) from None

    def degree(self, node: Node) -> int:
        """The number of edges containing ``node``."""
        return len(self.edges_containing(node))

    def isolated_nodes(self) -> NodeSet:
        """Nodes that belong to no edge (possible only via the ``nodes`` argument)."""
        return frozenset(node for node in self._nodes if not self._incidence[node])

    @property
    def rank(self) -> int:
        """The size of the largest edge (0 for an edgeless hypergraph)."""
        return max((len(edge) for edge in self._edges), default=0)

    # ------------------------------------------------------------------ #
    # Reduction (in the "no edge contained in another" sense of Section 1)
    # ------------------------------------------------------------------ #
    @property
    def is_reduced(self) -> bool:
        """``True`` when no edge is a proper subset of another edge.

        The paper assumes hypergraphs are reduced by default; Graham and
        tableau reductions can produce non-reduced intermediate families.
        """
        for edge in self._edges:
            for other in self._edges:
                if edge is not other and edge < other:
                    return False
        return True

    def reduce(self) -> "Hypergraph":
        """Return the reduction of this hypergraph.

        Keeps only inclusion-maximal edges.  Isolated nodes are preserved so
        that node-generated hypergraphs keep their full generating node set.
        """
        kept = maximal_sets(self._edges)
        return Hypergraph(kept, nodes=self._nodes, name=self._name)

    # ------------------------------------------------------------------ #
    # Derived hypergraphs
    # ------------------------------------------------------------------ #
    def restrict(self, nodes: Iterable[Node], *, keep_empty: bool = False) -> "Hypergraph":
        """Return the raw restriction ``{E ∩ N' : E ∈ edges}``.

        Unlike :meth:`node_generated` this does not drop edges contained in
        other edges; it is the primitive both node generation and articulation
        testing are built on.  ``keep_empty=True`` retains empty intersections
        (useful when the caller needs to know how many edges vanished).
        """
        node_set = frozenset(nodes)
        unknown = node_set - self._nodes
        if unknown:
            raise UnknownNodeError(sorted_nodes(unknown)[0])
        restricted = []
        for edge in self._edges:
            intersection = edge & node_set
            if intersection or keep_empty:
                restricted.append(intersection)
        return Hypergraph(restricted, nodes=node_set, name=self._name)

    def node_generated(self, nodes: Iterable[Node]) -> "Hypergraph":
        """The node-generated set of edges of Section 1, viewed as a hypergraph.

        ``F = {E ∩ N' : E ∈ edges}`` with proper subsets of other members (and
        the empty set) removed; its node set is the generating set ``N'``.
        """
        node_set = frozenset(nodes)
        unknown = node_set - self._nodes
        if unknown:
            raise UnknownNodeError(sorted_nodes(unknown)[0])
        intersections = [edge & node_set for edge in self._edges if edge & node_set]
        kept = maximal_sets(intersections)
        return Hypergraph(kept, nodes=node_set, name=None)

    def remove_nodes(self, nodes: Iterable[Node]) -> "Hypergraph":
        """Remove ``nodes`` from the node set and from every edge containing them.

        This is the operation used in the definition of an articulation set:
        "the removal of set of nodes X from the hypergraph, and therefore from
        all edges containing such nodes".  Edges that become empty disappear.
        """
        to_remove = frozenset(nodes)
        remaining_nodes = self._nodes - to_remove
        new_edges = []
        for edge in self._edges:
            trimmed = edge - to_remove
            if trimmed:
                new_edges.append(trimmed)
        return Hypergraph(new_edges, nodes=remaining_nodes, name=self._name)

    def remove_node(self, node: Node) -> "Hypergraph":
        """Remove a single node (see :meth:`remove_nodes`)."""
        if node not in self._nodes:
            raise UnknownNodeError(node)
        return self.remove_nodes([node])

    def remove_node_from_edge(self, node: Node, edge: Iterable[Node]) -> "Hypergraph":
        """Remove ``node`` from one specific ``edge`` only.

        This is the *node removal* step of Graham reduction, which deletes a
        node appearing in only one edge from the node set and from that edge.
        The result may not be reduced.
        """
        target = frozenset(edge)
        if target not in self.edge_set:
            raise UnknownEdgeError(target)
        if node not in target:
            raise HypergraphError(f"node {node!r} is not a member of edge {format_node_set(target)}")
        new_edges = []
        for existing in self._edges:
            if existing == target:
                new_edges.append(existing - {node})
            else:
                new_edges.append(existing)
        still_present = any(node in e for e in new_edges)
        remaining_nodes = self._nodes if still_present else self._nodes - {node}
        return Hypergraph(new_edges, nodes=remaining_nodes - frozenset(), name=self._name)

    def remove_edge(self, edge: Iterable[Node]) -> "Hypergraph":
        """Remove one edge.  Nodes are retained even if they become isolated.

        This matches the *edge removal* step of Graham reduction: deleting an
        edge ``E ⊆ F`` never deletes nodes, because every node of ``E`` still
        occurs in ``F``.
        """
        target = frozenset(edge)
        if target not in self.edge_set:
            raise UnknownEdgeError(target)
        new_edges = [e for e in self._edges if e != target]
        return Hypergraph(new_edges, nodes=self._nodes, name=self._name)

    def add_edge(self, edge: Iterable[Node]) -> "Hypergraph":
        """Return a hypergraph with ``edge`` added."""
        return Hypergraph(list(self._edges) + [frozenset(edge)], nodes=self._nodes,
                          name=self._name)

    def add_edges(self, edges: Iterable[Iterable[Node]]) -> "Hypergraph":
        """Return a hypergraph with all of ``edges`` added."""
        return Hypergraph(list(self._edges) + [frozenset(e) for e in edges],
                          nodes=self._nodes, name=self._name)

    def rename_nodes(self, mapping: Mapping[Node, Node]) -> "Hypergraph":
        """Rename nodes according to ``mapping`` (nodes absent from it are kept).

        Raises :class:`HypergraphError` if the mapping is not injective on the
        node set, because renaming must preserve the hypergraph's structure.
        """
        image = [mapping.get(node, node) for node in self._nodes]
        if len(set(image)) != len(image):
            raise HypergraphError("node renaming must be injective on the node set")
        new_edges = [frozenset(mapping.get(node, node) for node in edge) for edge in self._edges]
        new_nodes = [mapping.get(node, node) for node in self._nodes]
        return Hypergraph(new_edges, nodes=new_nodes, name=self._name)

    def with_name(self, name: Optional[str]) -> "Hypergraph":
        """Return a copy of this hypergraph carrying a different name."""
        return Hypergraph(self._edges, nodes=self._nodes, name=name)

    def union(self, other: "Hypergraph", name: Optional[str] = None) -> "Hypergraph":
        """Union of node sets and edge sets."""
        return Hypergraph(list(self._edges) + list(other._edges),
                          nodes=self._nodes | other._nodes, name=name)

    # ------------------------------------------------------------------ #
    # Connectivity (delegating to repro.core.components to avoid cycles)
    # ------------------------------------------------------------------ #
    def components(self) -> Tuple[NodeSet, ...]:
        """The components (maximal connected node sets) of the hypergraph.

        Isolated nodes each form their own component.
        """
        from .components import components

        return components(self)

    def component_count(self) -> int:
        """The number of components."""
        return len(self.components())

    def is_connected(self) -> bool:
        """``True`` when the hypergraph has at most one component.

        The paper assumes its hypergraphs are connected "for convenience"; the
        library supports disconnected hypergraphs throughout but several
        theorem checkers require connectivity and say so explicitly.
        """
        return self.component_count() <= 1

    def nodes_connected(self, source: Node, target: Node) -> bool:
        """``True`` if there is a chain of pairwise-intersecting edges from one to the other."""
        from .components import nodes_connected

        return nodes_connected(self, source, target)

    # ------------------------------------------------------------------ #
    # Dual / 2-section views used by generators and analysis
    # ------------------------------------------------------------------ #
    def two_section_edges(self) -> FrozenSet[FrozenSet[Node]]:
        """The edge set of the 2-section (primal) graph.

        Two nodes are adjacent iff some hyperedge contains both.  Used by the
        β/γ-acyclicity contrasts and by the analysis module.
        """
        pairs = set()
        for edge in self._edges:
            ordered = sorted_nodes(edge)
            for i, left in enumerate(ordered):
                for right in ordered[i + 1:]:
                    pairs.add(frozenset({left, right}))
        return frozenset(pairs)

    def edge_intersection_graph(self) -> Dict[Tuple[int, int], NodeSet]:
        """Map each pair of edge indices to their intersection (possibly empty).

        Indices refer to positions in :attr:`edges`.  Used by join-tree
        construction (maximum-weight spanning tree over intersection sizes).
        """
        result: Dict[Tuple[int, int], NodeSet] = {}
        for i, left in enumerate(self._edges):
            for j in range(i + 1, len(self._edges)):
                result[(i, j)] = left & self._edges[j]
        return result

    # ------------------------------------------------------------------ #
    # Equality / hashing / rendering
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self._nodes == other._nodes and self.edge_set == other.edge_set

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._nodes, self.edge_set))
        return self._hash

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return (f"Hypergraph{label}(nodes={len(self._nodes)}, "
                f"edges={len(self._edges)})")

    def __str__(self) -> str:
        edges = ", ".join(format_node_set(edge) for edge in self._edges)
        prefix = f"{self._name}: " if self._name else ""
        return f"{prefix}{{{edges}}}" if edges else f"{prefix}{{}}"

    def describe(self) -> str:
        """A multi-line human-readable description used by the examples."""
        lines = [f"Hypergraph {self._name or '(unnamed)'}"]
        lines.append(f"  nodes ({self.num_nodes}): {format_node_set(self._nodes)}")
        lines.append(f"  edges ({self.num_edges}):")
        for edge in self._edges:
            lines.append(f"    {format_node_set(edge)}")
        return "\n".join(lines)

    def sorted_edge_tuples(self) -> Tuple[Tuple[Node, ...], ...]:
        """Edges as sorted tuples — a stable, comparison-friendly view for tests."""
        return tuple(sorted_nodes(edge) for edge in self._edges)
