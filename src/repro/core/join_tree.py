"""Join trees (qual trees) for hypergraphs.

A *join tree* for a hypergraph ``H`` is a tree whose vertices are the edges of
``H`` such that for every node ``n`` of ``H`` the set of tree vertices whose
edge contains ``n`` induces a connected subtree (the *running intersection* or
*connectedness* property).  A hypergraph has a join tree iff it is acyclic in
the sense of the paper (α-acyclicity); the equivalence is one of the
"desirable properties" of reference [4] (Beeri–Fagin–Maier–Yannakakis) that
the paper leans on, so this module both constructs join trees and verifies the
property, providing the cross-check used by :mod:`repro.core.acyclicity`.

Join trees are also the execution skeleton for Yannakakis' algorithm and the
semijoin full reducers in :mod:`repro.relational`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import CyclicHypergraphError, HypergraphError
from .components import UnionFind
from .hypergraph import Edge, Hypergraph
from .nodes import Node, NodeSet, edge_sort_key, format_node_set

__all__ = [
    "JoinTree",
    "RootedJoinTree",
    "maximum_weight_join_tree",
    "join_tree_via_ears",
    "build_join_tree",
    "has_join_tree",
]


@dataclass(frozen=True)
class RootedJoinTree:
    """A join tree with a fixed root: the execution skeleton of the engine.

    ``order`` is a parent-before-child traversal ``(vertex, parent)`` (parent
    is ``None`` for each component's root).  Parent, children and separator
    lookups are precomputed so that reducer passes and the bottom-up join
    phase are table lookups rather than tree searches.
    """

    tree: JoinTree
    order: Tuple[Tuple[Edge, Optional[Edge]], ...]

    @property
    def roots(self) -> Tuple[Edge, ...]:
        """The root of every tree component, in traversal order."""
        return tuple(vertex for vertex, parent in self.order if parent is None)

    def parent_of(self, vertex: Edge) -> Optional[Edge]:
        """The parent of ``vertex`` (``None`` for roots)."""
        return self._parents()[vertex]

    def children_of(self, vertex: Edge) -> Tuple[Edge, ...]:
        """The children of ``vertex``, in traversal order."""
        return self._children().get(vertex, ())

    def separator(self, child: Edge) -> FrozenSet[Node]:
        """The separator between ``child`` and its parent (empty for roots)."""
        parent = self.parent_of(child)
        if parent is None:
            return frozenset()
        return frozenset(child & parent)

    def leaf_to_root(self) -> Tuple[Tuple[Edge, Optional[Edge]], ...]:
        """The traversal with children before parents (the upward pass)."""
        return tuple(reversed(self.order))

    def root_to_leaf(self) -> Tuple[Tuple[Edge, Optional[Edge]], ...]:
        """The traversal with parents before children (the downward pass)."""
        return self.order

    # The maps are derived lazily and memoised on the instance; the dataclass
    # is frozen, so object.__setattr__ is the sanctioned escape hatch.
    def _parents(self) -> Dict[Edge, Optional[Edge]]:
        cached = getattr(self, "_parent_map", None)
        if cached is None:
            cached = {vertex: parent for vertex, parent in self.order}
            object.__setattr__(self, "_parent_map", cached)
        return cached

    def _children(self) -> Dict[Edge, Tuple[Edge, ...]]:
        cached = getattr(self, "_children_map", None)
        if cached is None:
            grouped: Dict[Edge, List[Edge]] = {}
            for vertex, parent in self.order:
                if parent is not None:
                    grouped.setdefault(parent, []).append(vertex)
            cached = {parent: tuple(children) for parent, children in grouped.items()}
            object.__setattr__(self, "_children_map", cached)
        return cached


@dataclass(frozen=True)
class JoinTree:
    """A join tree (or forest) over the edges of a hypergraph.

    Attributes
    ----------
    hypergraph:
        The hypergraph the tree is for.
    vertices:
        The tree's vertices — exactly the edges of the hypergraph.
    tree_edges:
        Unordered pairs of vertices (as 2-element frozensets of edges).
    """

    hypergraph: Hypergraph
    vertices: Tuple[Edge, ...]
    tree_edges: Tuple[FrozenSet[Edge], ...]

    def __post_init__(self) -> None:
        vertex_set = frozenset(self.vertices)
        if vertex_set != self.hypergraph.edge_set:
            raise HypergraphError("join tree vertices must be exactly the hypergraph's edges")
        for pair in self.tree_edges:
            if len(pair) != 2 or not pair <= vertex_set:
                raise HypergraphError("each join-tree edge must join two distinct hypergraph edges")

    # ------------------------------------------------------------------ #
    @property
    def is_tree(self) -> bool:
        """``True`` when the structure is a spanning tree of its vertices (connected, acyclic)."""
        count = len(self.vertices)
        if count == 0:
            return True
        if len(self.tree_edges) != count - 1:
            return False
        return self.is_forest and self._connected_components() == 1

    @property
    def is_forest(self) -> bool:
        """``True`` when the structure has no cycles (it may be disconnected)."""
        structure = UnionFind(self.vertices)
        for pair in self.tree_edges:
            left, right = tuple(pair)
            if structure.connected(left, right):
                return False
            structure.union(left, right)
        return True

    def _connected_components(self) -> int:
        structure = UnionFind(self.vertices)
        for pair in self.tree_edges:
            left, right = tuple(pair)
            structure.union(left, right)
        return len(structure.groups())

    def neighbours(self, vertex: Edge) -> Tuple[Edge, ...]:
        """The neighbouring vertices of ``vertex`` in the tree, in canonical order."""
        return self._adjacency().get(vertex, ())

    # The canonical order and the adjacency are derived lazily and memoised
    # on the instance, as RootedJoinTree's maps are.
    def canonical_vertices(self) -> Tuple[Edge, ...]:
        """The vertices in canonical (:func:`~repro.core.nodes.edge_sort_key`) order."""
        return self._ranked()[0]

    def vertex_rank(self) -> Dict[Edge, int]:
        """Each vertex's position in :meth:`canonical_vertices`."""
        return self._ranked()[1]

    def _ranked(self) -> Tuple[Tuple[Edge, ...], Dict[Edge, int]]:
        cached = getattr(self, "_rank_cache", None)
        if cached is None:
            ordered = tuple(sorted(self.vertices, key=edge_sort_key))
            cached = (ordered, {vertex: position for position, vertex in enumerate(ordered)})
            object.__setattr__(self, "_rank_cache", cached)
        return cached

    def _adjacency(self) -> Dict[Edge, Tuple[Edge, ...]]:
        cached = getattr(self, "_adjacency_cache", None)
        if cached is None:
            grouped: Dict[Edge, List[Edge]] = {vertex: [] for vertex in self.vertices}
            for pair in self.tree_edges:
                left, right = tuple(pair)
                grouped[left].append(right)
                grouped[right].append(left)
            rank = self.vertex_rank()
            cached = {vertex: tuple(sorted(neighbours, key=rank.__getitem__))
                      for vertex, neighbours in grouped.items()}
            object.__setattr__(self, "_adjacency_cache", cached)
        return cached

    def satisfies_running_intersection(self) -> bool:
        """Check the connectedness (running-intersection) property.

        For every node of the hypergraph, the vertices containing it must
        induce a connected subgraph of the tree.
        """
        for node in self.hypergraph.nodes:
            containing = [vertex for vertex in self.vertices if node in vertex]
            if len(containing) <= 1:
                continue
            structure = UnionFind(containing)
            containing_set = set(containing)
            for pair in self.tree_edges:
                left, right = tuple(pair)
                if left in containing_set and right in containing_set:
                    structure.union(left, right)
            if len(structure.groups()) != 1:
                return False
        return True

    @property
    def is_join_tree(self) -> bool:
        """``True`` when the structure is a forest spanning all vertices with the running-intersection property and is connected per hypergraph component."""
        if not self.is_forest:
            return False
        # It must have exactly one tree component per hypergraph component
        # formed by the (non-empty) edges.
        expected_components = len([group for group in self._edge_component_groups() if group])
        if self._connected_components() != max(expected_components, 1) and self.vertices:
            return False
        return self.satisfies_running_intersection()

    def _edge_component_groups(self) -> List[List[Edge]]:
        from .components import edge_components

        return [list(group) for group in edge_components(self.hypergraph)]

    def rooted_traversal(self, root: Optional[Edge] = None) -> Tuple[Tuple[Edge, Optional[Edge]], ...]:
        """A parent-before-child traversal ``(vertex, parent)`` of the tree.

        Used by Yannakakis' algorithm (upward and downward semijoin passes).
        For forests each component is traversed from its own root; ``root``
        selects the root of the component containing it.
        """
        if not self.vertices:
            return ()
        adjacency = self._adjacency()
        order: List[Tuple[Edge, Optional[Edge]]] = []
        visited: set = set()
        starts = self.canonical_vertices()
        if root is not None:
            if root not in adjacency:
                raise HypergraphError("requested root is not a vertex of the join tree")
            starts = (root,) + starts
        for start in starts:
            if start in visited:
                continue
            stack: List[Tuple[Edge, Optional[Edge]]] = [(start, None)]
            while stack:
                vertex, parent = stack.pop()
                if vertex in visited:
                    continue
                visited.add(vertex)
                order.append((vertex, parent))
                for neighbour in adjacency[vertex]:
                    if neighbour not in visited:
                        stack.append((neighbour, vertex))
        return tuple(order)

    def rooted(self, root: Optional[Edge] = None) -> "RootedJoinTree":
        """The tree rooted for execution: precomputed parents, children and separators.

        ``root`` selects the root of the component containing it; the other
        components keep their deterministic default roots.  This is the
        traversal API the :mod:`repro.engine` reducer and evaluator consume.
        """
        return RootedJoinTree(tree=self, order=self.rooted_traversal(root))

    def describe(self) -> str:
        """A multi-line rendering listing the tree edges and their separators."""
        lines = [f"Join tree over {len(self.vertices)} edges"]
        rank = self.vertex_rank()
        for pair in sorted(self.tree_edges, key=lambda p: sorted(map(rank.__getitem__, p))):
            left, right = sorted(pair, key=rank.__getitem__)
            separator = left & right
            lines.append(f"  {format_node_set(left)} -- {format_node_set(right)} "
                         f"(separator {format_node_set(separator)})")
        if not self.tree_edges:
            lines.append("  (no tree edges)")
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Construction algorithms
# --------------------------------------------------------------------------- #
def maximum_weight_join_tree(hypergraph: Hypergraph) -> JoinTree:
    """Build a candidate join tree as a maximum-weight spanning forest.

    The vertices are the hypergraph's edges; candidate tree edges are pairs of
    hypergraph edges weighted by the size of their intersection.  A classical
    result (Bernstein–Goodman; Maier) states that the hypergraph is acyclic iff
    such a maximum-weight spanning tree satisfies the running-intersection
    property, so callers should check :attr:`JoinTree.is_join_tree` on the
    result (``build_join_tree`` does this for you).

    Pairs with empty intersections are only used as a last resort so that the
    structure still spans hypergraphs whose edges do not all overlap.
    """
    edges = list(hypergraph.edges)
    keys = {edge: edge_sort_key(edge) for edge in edges}
    pairs: List[Tuple[int, Edge, Edge]] = []
    for i, left in enumerate(edges):
        for right in edges[i + 1:]:
            pairs.append((len(left & right), left, right))
    # Kruskal on descending weight; ties broken deterministically by node names.
    pairs.sort(key=lambda item: (-item[0], keys[item[1]], keys[item[2]]))
    structure = UnionFind(edges)
    chosen: List[FrozenSet[Edge]] = []
    for weight, left, right in pairs:
        if weight == 0:
            continue
        if not structure.connected(left, right):
            structure.union(left, right)
            chosen.append(frozenset({left, right}))
    return JoinTree(hypergraph=hypergraph, vertices=tuple(edges), tree_edges=tuple(chosen))


def join_tree_via_ears(hypergraph: Hypergraph) -> Optional[JoinTree]:
    """Build a join tree by repeatedly removing *ears*.

    An *ear* of a hypergraph is an edge ``E`` such that some other edge ``F``
    contains every node of ``E`` that also occurs outside ``E`` (``F`` is the
    ear's *witness*); isolated edges (sharing no node with the rest) are ears
    with any remaining edge as witness.  A hypergraph is acyclic iff it can be
    emptied by repeatedly plucking ears; attaching each ear to its witness
    yields a join tree.  Returns ``None`` when the hypergraph is cyclic.
    """
    remaining = list(hypergraph.edges)
    attachments: List[FrozenSet[Edge]] = []
    while len(remaining) > 1:
        ear_index: Optional[int] = None
        witness: Optional[Edge] = None
        for index, edge in enumerate(remaining):
            others = [other for position, other in enumerate(remaining) if position != index]
            outside = frozenset().union(*others) if others else frozenset()
            shared = edge & outside
            candidate_witness = None
            for other in others:
                if shared <= other:
                    candidate_witness = other
                    break
            if candidate_witness is not None:
                ear_index, witness = index, candidate_witness
                break
        if ear_index is None:
            return None
        ear = remaining.pop(ear_index)
        assert witness is not None
        attachments.append(frozenset({ear, witness}))
    return JoinTree(hypergraph=hypergraph, vertices=tuple(hypergraph.edges),
                    tree_edges=tuple(attachments))


def build_join_tree(hypergraph: Hypergraph, *, method: str = "mwst") -> Optional[JoinTree]:
    """Build and validate a join tree; return ``None`` when none exists (cyclic input).

    ``method`` is ``"mwst"`` (maximum-weight spanning tree, the default) or
    ``"ears"`` (ear decomposition).  Either way the result is verified against
    the running-intersection property before being returned.
    """
    if method == "mwst":
        candidate = maximum_weight_join_tree(hypergraph)
        return candidate if candidate.is_join_tree else None
    if method == "ears":
        candidate = join_tree_via_ears(hypergraph)
        if candidate is None:
            return None
        return candidate if candidate.is_join_tree else None
    raise ValueError("method must be 'mwst' or 'ears'")


def has_join_tree(hypergraph: Hypergraph) -> bool:
    """``True`` when the hypergraph admits a join tree (i.e. it is α-acyclic)."""
    return build_join_tree(hypergraph) is not None
