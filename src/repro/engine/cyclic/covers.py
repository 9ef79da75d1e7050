"""Cover search: group a cyclic hypergraph's edges into clusters with an acyclic quotient.

The paper's conclusion warns that the universal-relation construction "will
not work when the underlying structure is cyclic"; Maier & Ullman's
maximal-object semantics (ref. [8]) handles cyclicity by interpreting the
schema through maximal acyclic sub-structures.  The engine's operational
counterpart is a **cluster cover**: every edge of the query hypergraph is
assigned to at least one cluster, each cluster is materialised as one virtual
relation (the join of its member edges), and the *quotient* hypergraph — one
edge per cluster, the union of the cluster's members — must be acyclic, so
the PR-1 planner/reducer machinery applies to it unchanged.

The search has two stages:

1. **Core detection** — one run of the in-place GYO kernel
   (:func:`~repro.core.graham_kernel.graham_survivors`) splits the edges into
   ears (eliminated: their outside-shared nodes are covered by a witness) and
   the stuck cyclic core (survivors).  Each connected component of the core
   collapsed to a single cluster always yields an acyclic quotient (peeled
   ears re-attach to the collapsed cluster in reverse order), so a valid
   baseline cover exists for every hypergraph.
2. **Refinement** — small stuck components are additionally partitioned into
   finer clusters (candidate groupings seeded by exhaustive set partitions,
   the same search space :func:`~repro.relational.maximal_objects.enumerate_maximal_objects`
   walks).  The ears peel off every quotient exactly as they peel off the
   original (Lemma 2.1: the order of removals does not matter) and core
   components share no nodes, so a candidate's quotient is acyclic exactly
   when each component's cluster schemes are: every partition is validated
   once, on its own component's ≤ 7 cluster edges, and candidates are the
   product of the valid partitions only.  Candidates are scored by cluster
   *width* (attributes a cluster materialises) and *fan-out* (edges joined
   inside one cluster), and the minimal-width cover wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..catalog import StatisticsCatalog

from ...core.components import edge_components
from ...core.graham_kernel import graham_survivors
from ...core.hypergraph import Edge, Hypergraph
from ...core.nodes import edge_sort_key, format_node_set
from ...telemetry.tracing import current_tracer

__all__ = [
    "EdgeCluster",
    "ClusterCover",
    "enumerate_covers",
    "cover_score",
    "select_cover",
]

#: Stuck components larger than this are not refined (set partitions are exponential).
_REFINEMENT_EDGE_LIMIT = 7

#: Upper bound on how many candidate covers one search builds and returns.
#: Candidates are assembled from already-validated partitions, so every cover
#: built is admitted and the search never walks combinations past the bound.
_CANDIDATE_LIMIT = 256


@dataclass(frozen=True)
class EdgeCluster:
    """One cluster: a set of hypergraph edges materialised as a single virtual relation.

    The scheme is the union of the members, taken once when the cluster is
    built: a search scores each cluster in many candidate covers.
    """

    edges: FrozenSet[Edge]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_attributes",
                           frozenset().union(*self.edges) if self.edges else frozenset())

    @property
    def attributes(self) -> FrozenSet:
        """The cluster's scheme — the union of its member edges (the quotient edge)."""
        return self._attributes

    @property
    def width(self) -> int:
        """How many attributes the cluster materialises (the quotient edge's arity)."""
        return len(self._attributes)

    @property
    def fan_out(self) -> int:
        """How many member edges are joined inside the cluster."""
        return len(self.edges)

    @property
    def is_singleton(self) -> bool:
        """``True`` for clusters of a single edge (no intra-cluster join needed)."""
        return len(self.edges) == 1

    def sorted_edges(self) -> Tuple[Edge, ...]:
        """The member edges in canonical order (used by deterministic execution)."""
        return tuple(sorted(self.edges, key=edge_sort_key))

    def estimated_rows(self, catalog: "StatisticsCatalog") -> int:
        """The estimated cardinality of the cluster's intra-cluster join.

        Folds the member edges' catalog estimates in canonical order with the
        System-R join formula; singletons are just their relation estimate.
        """
        members = self.sorted_edges()
        if not members:
            return 0
        estimate = catalog.estimate_for(members[0])
        for edge in members[1:]:
            estimate = estimate.join(catalog.estimate_for(edge))
        return estimate.rows

    def describe(self) -> str:
        """``{AB, BC} → ABC``-style rendering."""
        members = ", ".join(format_node_set(edge) for edge in self.sorted_edges())
        return f"{{{members}}} → {format_node_set(self.attributes)}"


@dataclass(frozen=True)
class ClusterCover:
    """A cover of a hypergraph's edges by clusters, in canonical cluster order."""

    clusters: Tuple[EdgeCluster, ...]

    @classmethod
    def of(cls, groups: Iterable[Iterable[Edge]]) -> "ClusterCover":
        """Build a cover from edge groups, normalising cluster order."""
        return _ClusterShapes().cover(groups)

    @property
    def width(self) -> int:
        """The widest cluster's attribute count — the cover's cost headline."""
        return max((cluster.width for cluster in self.clusters), default=0)

    @property
    def fan_out(self) -> int:
        """The largest number of edges joined inside one cluster."""
        return max((cluster.fan_out for cluster in self.clusters), default=0)

    @property
    def covered_edges(self) -> FrozenSet[Edge]:
        """Every hypergraph edge assigned to some cluster."""
        return frozenset().union(*(cluster.edges for cluster in self.clusters)) \
            if self.clusters else frozenset()

    @property
    def quotient_edges(self) -> Tuple[Edge, ...]:
        """The distinct cluster schemes — the edge set of the quotient hypergraph."""
        distinct = {cluster.attributes for cluster in self.clusters}
        return tuple(sorted(distinct, key=edge_sort_key))

    @property
    def is_trivial(self) -> bool:
        """``True`` when every cluster is a singleton (the quotient is the original)."""
        return all(cluster.is_singleton for cluster in self.clusters)

    def covers(self, hypergraph: Hypergraph) -> bool:
        """``True`` when the cover assigns exactly the hypergraph's edges."""
        return self.covered_edges == hypergraph.edge_set

    def quotient_hypergraph(self, name: Optional[str] = None) -> Hypergraph:
        """The quotient hypergraph: one edge per distinct cluster scheme."""
        return Hypergraph(self.quotient_edges, name=name)

    def describe(self) -> str:
        """A multi-line rendering listing every cluster."""
        lines = [f"ClusterCover ({len(self.clusters)} clusters, "
                 f"width {self.width}, fan-out {self.fan_out})"]
        for cluster in self.clusters:
            lines.append(f"  {cluster.describe()}")
        return "\n".join(lines)


class _ClusterShapes:
    """The clusters of one search, each built and keyed once.

    A cover lists its clusters by their scheme's canonical key, then by
    their members' keys.  The candidates of one search share most of their
    clusters, so each edge's key is computed once and each distinct group
    becomes one :class:`EdgeCluster` with its sort key, whichever covers it
    appears in.
    """

    def __init__(self) -> None:
        self._edge_keys: Dict[Edge, Tuple] = {}
        self._clusters: Dict[FrozenSet[Edge], Tuple[Tuple, EdgeCluster]] = {}

    def edge_key(self, edge: Edge) -> Tuple:
        """The canonical key of ``edge``, computed once per search."""
        key = self._edge_keys.get(edge)
        if key is None:
            key = self._edge_keys[edge] = edge_sort_key(edge)
        return key

    def _keyed(self, members: FrozenSet[Edge]) -> Tuple[Tuple, EdgeCluster]:
        keyed = self._clusters.get(members)
        if keyed is None:
            cluster = EdgeCluster(edges=members)
            key = (edge_sort_key(cluster.attributes),
                   tuple(sorted(map(self.edge_key, members))))
            keyed = self._clusters[members] = (key, cluster)
        return keyed

    def cover(self, groups: Iterable[Iterable[Edge]]) -> ClusterCover:
        """The cover of ``groups`` (empty groups dropped), clusters in canonical order."""
        keyed = [self._keyed(frozenset(group)) for group in groups]
        keyed.sort(key=lambda entry: entry[0])
        return ClusterCover(clusters=tuple(cluster for _, cluster in keyed
                                           if cluster.edges))


def _attach_empty_edges(groups: List[List[Edge]], empty_edges: List[Edge]) -> List[List[Edge]]:
    """Fold empty edges (0-ary atoms) into the first cluster; they never widen it."""
    if not empty_edges:
        return groups
    if not groups:
        return [list(empty_edges)]
    merged = [list(group) for group in groups]
    merged[0] = merged[0] + list(empty_edges)
    return merged


def _core_decomposition(hypergraph: Hypergraph
                        ) -> Tuple[List[Edge], List[Edge], List[Edge], List[List[Edge]]]:
    """One GYO kernel run: (proper edges, empty edges, ears, core components).

    The kernel's survivors are the cyclic core and every other proper edge is
    an ear.  ``ears`` and the component list are empty for acyclic
    hypergraphs; cover search and the baseline cover both build on this
    single decomposition, so one reduction runs per search.
    """
    proper = [edge for edge in hypergraph.edges if edge]
    empty = [edge for edge in hypergraph.edges if not edge]
    core = graham_survivors(proper)
    if len(core) <= 1:
        return proper, empty, [], []
    stuck = frozenset(core)
    ears = [edge for edge in proper if edge not in stuck]
    components = [list(component) for component in edge_components(Hypergraph(core))]
    return proper, empty, ears, components


def _baseline_groups(proper: List[Edge], ears: List[Edge],
                     components: List[List[Edge]]) -> List[List[Edge]]:
    """Baseline grouping: singleton ears, one group per stuck-core component."""
    if not components:
        return [[edge] for edge in proper]
    return [[edge] for edge in ears] + [list(component) for component in components]


def _set_partitions(items: List[Edge]) -> Iterator[List[List[Edge]]]:
    """All set partitions of ``items`` (callers cap ``len(items)``)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for index in range(len(partition)):
            yield partition[:index] + [[first] + partition[index]] + partition[index + 1:]
        yield partition + [[first]]


def _schemes_acyclic(partition: List[List[Edge]]) -> bool:
    """``True`` when the partition's cluster schemes form an acyclic hypergraph."""
    schemes = [frozenset().union(*group) for group in partition]
    return len(graham_survivors(schemes)) <= 1


def enumerate_covers(hypergraph: Hypergraph, *,
                     max_component_edges: int = _REFINEMENT_EDGE_LIMIT,
                     max_candidates: int = _CANDIDATE_LIMIT) -> Tuple[ClusterCover, ...]:
    """Enumerate valid candidate covers (acyclic quotient), baseline included.

    Stuck-core components with at most ``max_component_edges`` edges are
    refined by exhaustive set partition.  A partition is valid when its own
    cluster schemes pass the GYO acyclicity test (ears and the other
    components cannot change that verdict, see the module docstring), and the
    candidates are the combinations of valid partitions, at most
    ``max_candidates`` of them.  Candidate 0 is always the baseline cover —
    singleton ears, one cluster per stuck-core component (an acyclic
    hypergraph gets the all-singleton, trivial cover) — so the enumeration
    is never empty.

    A core component *beyond* the cap, where exhaustive set partition would
    blow up (Bell numbers), keeps only its greedy collapsed-component
    candidate.
    """
    span = current_tracer().span("cover_search")
    with span:
        proper, empty, ears, components = _core_decomposition(hypergraph)
        shapes = _ClusterShapes()
        covers = [shapes.cover(
            _attach_empty_edges(_baseline_groups(proper, ears, components), empty))]
        partitions_examined = 0
        per_component: List[List[List[List[Edge]]]] = []
        for component in components:
            options: List[List[List[Edge]]] = [[list(component)]]
            if len(component) <= max_component_edges:
                for partition in _set_partitions(sorted(component, key=shapes.edge_key)):
                    if len(partition) == 1:
                        continue  # already present as the collapsed baseline option
                    partitions_examined += 1
                    if _schemes_acyclic(partition):
                        options.append(partition)
            per_component.append(options)
        refinements = product(*per_component)
        next(refinements)  # every component collapsed: the baseline again
        for combination in islice(refinements, max(max_candidates - 1, 0)):
            groups: List[List[Edge]] = [[edge] for edge in ears]
            for partition in combination:
                groups.extend(partition)
            covers.append(shapes.cover(_attach_empty_edges(groups, empty)))
        if span.is_recording:
            span.set("edges", len(hypergraph.edges))
            span.set("core_edges", sum(len(component) for component in components))
            span.set("partitions_examined", partitions_examined)
            span.set("candidates", len(covers))
        return tuple(covers)


def _numeric_score(cover: ClusterCover, catalog: Optional["StatisticsCatalog"],
                   estimated_rows: Dict[EdgeCluster, int]) -> Tuple[int, ...]:
    """:func:`cover_score` without its rendering; cluster estimates memoised in ``estimated_rows``."""
    materialised = sum(cluster.width for cluster in cover.clusters
                       if not cluster.is_singleton)
    if catalog is None:
        return (cover.width, cover.fan_out, materialised)
    estimates = []
    for cluster in cover.clusters:
        if cluster.is_singleton:
            continue
        if cluster not in estimated_rows:
            estimated_rows[cluster] = cluster.estimated_rows(catalog)
        estimates.append(estimated_rows[cluster])
    return (cover.width, max(estimates, default=0), sum(estimates),
            cover.fan_out, materialised)


def _rendering(cover: ClusterCover) -> Tuple[str, ...]:
    """The deterministic last tie-break of :func:`cover_score`."""
    return tuple(cluster.describe() for cluster in cover.clusters)


def cover_score(cover: ClusterCover,
                catalog: Optional["StatisticsCatalog"] = None) -> Tuple:
    """The cover's cost tuple (lexicographic; smaller is better).

    Without a catalog the score is the static schema-shape tuple: the widest
    cluster dominates (it bounds the largest relation the quotient reducer
    must index), then the largest intra-cluster join (fan-out), then the
    total width of the non-singleton clusters (how much the executor
    materialises at all), then a deterministic rendering.

    With a ``catalog`` the width/fan-out tie-breaks become cardinality-aware:
    after the width, candidates are compared by the *estimated* largest and
    total materialised cluster cardinality, so two covers of equal width are
    separated by how many rows their cores would actually produce on this
    database — the adaptive half of cover selection.
    """
    return _numeric_score(cover, catalog, {}) + (_rendering(cover),)


def select_cover(candidates: Iterable[ClusterCover],
                 catalog: Optional["StatisticsCatalog"] = None) -> ClusterCover:
    """The minimal-:func:`cover_score` candidate, computed without scoring each in full.

    Only the candidates tied on the numeric part of the score are rendered,
    and with a ``catalog`` each distinct cluster's cardinality is estimated
    once for the whole selection: the candidates of one search share most of
    their clusters.
    """
    estimated_rows: Dict[EdgeCluster, int] = {}
    scored = [(_numeric_score(cover, catalog, estimated_rows), cover)
              for cover in candidates]
    best = min(score for score, _ in scored)
    tied = [cover for score, cover in scored if score == best]
    return tied[0] if len(tied) == 1 else min(tied, key=_rendering)

