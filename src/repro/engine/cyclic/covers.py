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

**Cost model.**  A search is one kernel run over all E edges, then, for each
core component of k ≤ 7 edges, Bell(k) − 1 partitions (202 for the six-edge
clique), each judged by the bit-parallel
:func:`~repro.core.graham_kernel.masks_acyclic` on its group masks: the
component's nodes are numbered locally, and a group's mask is the OR of its
edges', built as the partition is enumerated, so no cluster scheme is built
as a set to be rejected.  Each valid partition's clusters are built and
keyed once; a candidate merges the ears' keyed clusters with those of its
partitions, at most ``max_candidates`` (256) of them, all valid.
:func:`select_cover` scores in one pass: each distinct cluster's width,
fan-out, materialised width and — with a catalog — estimated rows are
computed once, the estimates folded through shared canonical-order member
prefixes, and only candidates tied on the numbers are rendered, each
cluster once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..catalog import JoinEstimate, StatisticsCatalog

from ...core.components import edge_components
from ...core.graham_kernel import graham_survivors, masks_acyclic
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
    built, and the members' canonical order once when first asked for: a
    search scores each cluster in many candidate covers.
    """

    edges: FrozenSet[Edge]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_attributes",
                           frozenset().union(*self.edges) if self.edges else frozenset())
        object.__setattr__(self, "_sorted_edges", None)

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
        if self._sorted_edges is None:
            object.__setattr__(self, "_sorted_edges",
                               tuple(sorted(self.edges, key=edge_sort_key)))
        return self._sorted_edges

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


#: A cluster with its canonical sort key, as one search builds it.
_Keyed = Tuple[Tuple, EdgeCluster]


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
        self._clusters: Dict[FrozenSet[Edge], _Keyed] = {}

    def edge_key(self, edge: Edge) -> Tuple:
        """The canonical key of ``edge``, computed once per search."""
        key = self._edge_keys.get(edge)
        if key is None:
            key = self._edge_keys[edge] = edge_sort_key(edge)
        return key

    def keyed(self, group: Iterable[Edge]) -> _Keyed:
        """The ``(sort key, cluster)`` of ``group``, built on its first request."""
        members = frozenset(group)
        keyed = self._clusters.get(members)
        if keyed is None:
            cluster = EdgeCluster(edges=members)
            # The canonical member order, from this search's edge keys.
            ordered = tuple(sorted(members, key=self.edge_key))
            object.__setattr__(cluster, "_sorted_edges", ordered)
            key = (edge_sort_key(cluster.attributes),
                   tuple(map(self.edge_key, ordered)))
            keyed = self._clusters[members] = (key, cluster)
        return keyed

    @staticmethod
    def assemble(keyed: List[_Keyed]) -> ClusterCover:
        """The cover of already-keyed clusters (empty ones dropped), in canonical order."""
        keyed.sort(key=itemgetter(0))
        return ClusterCover(clusters=tuple(cluster for _, cluster in keyed
                                           if cluster.edges))

    def cover(self, groups: Iterable[Iterable[Edge]]) -> ClusterCover:
        """The cover of ``groups`` (empty groups dropped), clusters in canonical order."""
        return self.assemble([self.keyed(group) for group in groups])


def _core_decomposition(hypergraph: Hypergraph
                        ) -> Tuple[List[Edge], List[Edge], List[List[Edge]]]:
    """One GYO kernel run: (empty edges, ears, core components).

    The kernel's survivors are the cyclic core and every other proper edge is
    an ear; an acyclic hypergraph is all ears and no component.  Cover
    search builds every candidate, the baseline included, on this single
    decomposition, so one reduction runs per search.
    """
    proper = [edge for edge in hypergraph.edges if edge]
    empty = [edge for edge in hypergraph.edges if not edge]
    core = graham_survivors(proper)
    if len(core) <= 1:
        return empty, proper, []
    stuck = frozenset(core)
    ears = [edge for edge in proper if edge not in stuck]
    components = [list(component) for component in edge_components(Hypergraph(core))]
    return empty, ears, components


def _set_partitions(masks: List[int]) -> Iterator[Tuple[Tuple[int, ...], List[int]]]:
    """All set partitions of the items whose node masks are ``masks``.

    Each partition comes as (the group index of every item, every group's
    mask — the OR of its items' masks), in the order of the recursion "a
    partition of the items after the first, then the first item joined to
    each of its groups in turn, then in a group of its own".
    """
    if not masks:
        yield (), []
        return
    first = masks[0]
    for labels, unions in _set_partitions(masks[1:]):
        for index in range(len(unions)):
            joined = unions.copy()
            joined[index] |= first
            yield (index,) + labels, joined
        yield (len(unions),) + labels, unions + [first]


def _valid_partitions(component: List[Edge]) -> Tuple[List[List[List[Edge]]], int]:
    """The partitions of ``component`` into two or more groups whose cluster
    schemes are acyclic, in enumeration order, and how many were examined.

    Nodes are numbered locally to the component, so each edge is a small
    bitmask and a partition's cluster schemes are its group masks, built as
    the partition is enumerated and judged by :func:`masks_acyclic`.
    """
    bits: Dict[object, int] = {}
    masks = []
    for edge in component:
        mask = 0
        for node in edge:
            mask |= bits.setdefault(node, 1 << len(bits))
        masks.append(mask)
    valid: List[List[List[Edge]]] = []
    examined = 0
    for labels, unions in _set_partitions(masks):
        if len(unions) == 1:
            continue  # the collapsed component: the baseline option
        examined += 1
        if masks_acyclic(unions):
            groups: List[List[Edge]] = [[] for _ in unions]
            for edge, label in zip(component, labels):
                groups[label].append(edge)
            valid.append(groups)
    return valid, examined


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
        empty, ears, components = _core_decomposition(hypergraph)
        shapes = _ClusterShapes()

        def keyed(groups: List[List[Edge]], with_empty: bool) -> List[_Keyed]:
            # Empty edges (0-ary atoms) join the first group of a cover and
            # never widen it: the first ear's, else the first component's.
            if with_empty and empty:
                groups = [groups[0] + empty] + groups[1:] if groups else [empty]
            return [shapes.keyed(group) for group in groups]

        ear_clusters = keyed([[edge] for edge in ears], bool(ears) or not components)
        partitions_examined = 0
        per_component: List[List[List[_Keyed]]] = []
        for index, component in enumerate(components):
            options = [[list(component)]]
            if len(component) <= max_component_edges:
                valid, examined = _valid_partitions(
                    sorted(component, key=shapes.edge_key))
                options.extend(valid)
                partitions_examined += examined
            with_empty = index == 0 and not ears
            per_component.append([keyed(option, with_empty) for option in options])
        # The first combination collapses every component: the baseline.
        covers = []
        for combination in islice(product(*per_component), max(max_candidates, 1)):
            clusters = list(ear_clusters)
            for option in combination:
                clusters.extend(option)
            covers.append(shapes.assemble(clusters))
        if span.is_recording:
            span.set("edges", len(hypergraph.edges))
            span.set("core_edges", sum(len(component) for component in components))
            span.set("partitions_examined", partitions_examined)
            span.set("candidates", len(covers))
        return tuple(covers)


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
    materialised = sum(cluster.width for cluster in cover.clusters
                       if not cluster.is_singleton)
    rendering = tuple(cluster.describe() for cluster in cover.clusters)
    if catalog is None:
        return (cover.width, cover.fan_out, materialised, rendering)
    estimates = [cluster.estimated_rows(catalog) for cluster in cover.clusters
                 if not cluster.is_singleton]
    return (cover.width, max(estimates, default=0), sum(estimates),
            cover.fan_out, materialised, rendering)


def _prefix_estimate(members: Tuple[Edge, ...], catalog: "StatisticsCatalog",
                     prefixes: Dict[Tuple[Edge, ...], "JoinEstimate"]) -> "JoinEstimate":
    """:meth:`EdgeCluster.estimated_rows`'s fold of ``members``, each prefix folded once.

    The estimate of a prefix is its shorter prefix's joined with its last
    member's: the same ``join`` calls on equal operands, in the same order,
    as the fold — so the same floats.  Each edge's catalog estimate is the
    memoised one-member prefix.
    """
    estimate = prefixes.get(members)
    if estimate is None:
        if len(members) == 1:
            estimate = catalog.estimate_for(members[0])
        else:
            estimate = _prefix_estimate(members[:-1], catalog, prefixes).join(
                _prefix_estimate(members[-1:], catalog, prefixes))
        prefixes[members] = estimate
    return estimate


def select_cover(candidates: Iterable[ClusterCover],
                 catalog: Optional["StatisticsCatalog"] = None) -> ClusterCover:
    """The minimal-:func:`cover_score` candidate, in one scoring pass.

    The candidates of one search share most of their clusters, so each
    distinct cluster's part of the score — width, fan-out, materialised
    width and, with a ``catalog``, estimated rows — is computed once, and
    the clusters' joins are estimated through shared canonical-order member
    prefixes.  Only the candidates tied on the numeric part of the score
    are compared by rendering, each cluster rendered once.
    """
    # Keyed by identity: the scored candidates keep every cluster alive.
    terms: Dict[int, Tuple[int, int, int, int]] = {}
    prefixes: Dict[Tuple[Edge, ...], "JoinEstimate"] = {}
    scored = []
    for cover in candidates:
        width = fan_out = materialised = largest = total = 0
        for cluster in cover.clusters:
            term = terms.get(id(cluster))
            if term is None:
                rows = 0
                if catalog is not None and not cluster.is_singleton:
                    rows = _prefix_estimate(cluster.sorted_edges(), catalog,
                                            prefixes).rows
                term = terms[id(cluster)] = (
                    cluster.width, cluster.fan_out,
                    0 if cluster.is_singleton else cluster.width, rows)
            cluster_width, cluster_fan_out, cluster_materialised, rows = term
            if cluster_width > width:
                width = cluster_width
            if cluster_fan_out > fan_out:
                fan_out = cluster_fan_out
            if rows > largest:
                largest = rows
            materialised += cluster_materialised
            total += rows
        score = (width, fan_out, materialised) if catalog is None else \
            (width, largest, total, fan_out, materialised)
        scored.append((score, cover))
    best = min(score for score, _ in scored)
    tied = [cover for score, cover in scored if score == best]
    if len(tied) == 1:
        return tied[0]
    renderings: Dict[int, str] = {}

    def rendering(cover: ClusterCover) -> Tuple[str, ...]:
        for cluster in cover.clusters:
            if id(cluster) not in renderings:
                renderings[id(cluster)] = cluster.describe()
        return tuple(renderings[id(cluster)] for cluster in cover.clusters)

    return min(tied, key=rendering)
