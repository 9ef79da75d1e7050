"""Per-database statistics catalogs and the cost annotations they license.

The planner's :class:`~repro.engine.planner.ExecutionPlan` is deliberately
data-independent — it depends only on the schema's hypergraph and is cached
by fingerprint.  Everything *data-dependent* about planning lives here:

* :class:`RelationStatistics` — one relation's exact cardinality and
  per-attribute distinct counts, counted from the id columns of the
  relation's columnar block (which measuring builds if nothing has yet, and
  which execution needs anyway);
* :class:`StatisticsCatalog` — the per-database collection of those
  measurements, keyed by scheme;
* :class:`JoinEstimate` — a symbolic relation used while *simulating* plans:
  a scheme, an estimated cardinality and estimated per-attribute distinct
  counts, closed under join and projection;
* :class:`CostAnnotation` — the result of simulating the bottom-up join over
  a join tree with catalog estimates: a data-dependent root choice, a
  per-parent child fold order, per-vertex cardinality estimates and the
  predicted intermediate sizes.

:func:`annotate_tree` is the annotation compiler.  It mirrors the fused
projection of :func:`repro.engine.columnar.executor.compile_fold_program`
step for step, so the order it recommends is evaluated against exactly the
intermediates it predicted; the estimated-vs-actual columns of
:func:`repro.analysis.reports.statistics_table` make the comparison visible.

Estimates use the classical System-R assumptions (uniformity, independence,
containment of value sets): a join's size is ``|L|·|R| / Π max(d_L(a),
d_R(a))`` over the shared attributes, a projection onto ``K`` keeps at most
``Π d(a)`` rows, and a semijoin keeps the fraction ``min(1, d_src/d_tgt)``
per separator attribute.  They are wrong in detail and useful in aggregate —
the annotation only needs the *ordering* of candidate plans to be right.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.hypergraph import Edge
from ..core.join_tree import JoinTree
from ..core.nodes import edge_sort_key, format_node_set, sorted_nodes
from ..exceptions import HypergraphError
from ..relational.relation import Relation
from ..relational.schema import Attribute
from .deadline import check_deadline

__all__ = [
    "RelationStatistics",
    "StatisticsCatalog",
    "JoinEstimate",
    "CostAnnotation",
    "annotate_tree",
]

#: Pricing every rooting folds each vertex once per neighbour, and one fold
#: orders its children greedily in O(deg²) estimated joins, so a hub of
#: degree d costs O(d³) whichever way the rootings are shared.  Beyond this
#: many join-tree vertices the annotation keeps the structure plan's default
#: root and only adapts the child fold order.
_MAX_ROOT_CANDIDATES = 16


def _rows(estimate: float) -> int:
    """Round a fractional cardinality estimate to whole rows (never negative)."""
    return max(int(estimate + 0.5), 0)


# --------------------------------------------------------------------------- #
# Measurements
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RelationStatistics:
    """Measured statistics of one relation: cardinality and distinct counts."""

    edge: Edge
    cardinality: int
    distinct_counts: Mapping[Attribute, int]

    @classmethod
    def measure(cls, relation: Relation) -> "RelationStatistics":
        """Measure a relation exactly.

        The measurement is *encode, then count*: the relation's cached
        columnar block (:func:`~repro.engine.columnar.block.block_for`) is
        built if this is the first time the engine sees the relation, and
        the distinct counts are read off its id columns by the column
        backend — on numpy from the dense id table, no id boxed
        (:func:`~repro.engine.columnar.executor.statistics_from_block`) — so
        the first catalog of a database is what encodes it, and the
        evaluator that runs next finds every block cached instead of walking
        the rows again.

        Measuring is where a never-seen database is ingested, so each
        relation starts with a cooperative ``"ingest"`` deadline check: a
        request whose ambient budget is spent stops here instead of reading
        the rest of the database first.
        """
        check_deadline("ingest")
        # Imported here: ``columnar.executor`` imports this module for the
        # statistics classes, so a module-level import would be circular.
        from .columnar.block import block_for
        from .columnar.executor import statistics_from_block

        return statistics_from_block(block_for(relation))

    def merged_with(self, other: "RelationStatistics") -> "RelationStatistics":
        """Combine measurements of two same-scheme relations.

        Same-scheme relations are intersected by the engine (see
        :func:`repro.engine.columnar.kernels.merge_blocks_by_scheme`), so the
        combined estimate takes the minimum cardinality and distinct counts.
        """
        if other.edge != self.edge:
            raise ValueError("cannot merge statistics over different schemes")
        distinct = {attribute: min(self.distinct_counts.get(attribute, self.cardinality),
                                   other.distinct_counts.get(attribute, other.cardinality))
                    for attribute in self.edge}
        return RelationStatistics(edge=self.edge,
                                  cardinality=min(self.cardinality, other.cardinality),
                                  distinct_counts=distinct)

    def estimate(self) -> "JoinEstimate":
        """The measurement as a symbolic relation for plan simulation."""
        return JoinEstimate(self.edge, self.cardinality, self.distinct_counts)

    def describe(self) -> str:
        """``{A, B}: 120 rows, distinct A=30 B=4``-style rendering."""
        parts = " ".join(f"{attribute}="
                         f"{self.distinct_counts.get(attribute, self.cardinality)}"
                         for attribute in sorted_nodes(self.edge))
        return f"{format_node_set(self.edge)}: {self.cardinality} rows" \
               + (f", distinct {parts}" if parts else "")


class StatisticsCatalog:
    """A per-database collection of relation statistics.

    The catalog is keyed by *scheme* (the relation's attribute set — the
    hypergraph edge), matching how the engine maps relations onto join-tree
    vertices and cluster members.  Duplicate schemes are merged with
    :meth:`RelationStatistics.merged_with`.
    """

    def __init__(self, statistics: Iterable[RelationStatistics] = ()) -> None:
        self._by_edge: Dict[Edge, RelationStatistics] = {}
        for entry in statistics:
            existing = self._by_edge.get(entry.edge)
            self._by_edge[entry.edge] = entry if existing is None \
                else existing.merged_with(entry)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_relations(cls, relations: Sequence[Relation]) -> "StatisticsCatalog":
        """Measure every relation (same-scheme duplicates merged)."""
        return cls(RelationStatistics.measure(relation) for relation in relations)

    def with_edge_remeasured(self, edge: Iterable[Attribute],
                             relations: Sequence[Relation]) -> "StatisticsCatalog":
        """A catalog with one scheme's statistics replaced, the rest reused.

        The incremental-maintenance primitive behind
        :meth:`Database.with_relation
        <repro.relational.database.Database.with_relation>`: when a single
        relation instance is swapped, only its scheme needs re-measuring —
        every other edge's :class:`RelationStatistics` carries over
        unchanged.  ``relations`` are *all* the (new) instances over
        ``edge`` (same-scheme instances are merged, exactly as
        :meth:`from_relations` would); an empty sequence simply drops the
        scheme.
        """
        scheme = frozenset(edge)
        for relation in relations:
            if relation.schema.attribute_set != scheme:
                raise ValueError("with_edge_remeasured got a relation over a "
                                 "different scheme than the edge being replaced")
        entries = [entry for entry in self._by_edge.values() if entry.edge != scheme]
        entries.extend(RelationStatistics.measure(relation) for relation in relations)
        return StatisticsCatalog(entries)

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._by_edge)

    def __contains__(self, edge: object) -> bool:
        try:
            return frozenset(edge) in self._by_edge  # type: ignore[arg-type]
        except TypeError:  # not an iterable of hashable attributes
            return False

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """The measured schemes, in canonical order."""
        return tuple(sorted(self._by_edge, key=edge_sort_key))

    def statistics_for(self, edge: Iterable[Attribute]) -> Optional[RelationStatistics]:
        """The measurement for a scheme, or ``None`` when it was never measured."""
        return self._by_edge.get(frozenset(edge))

    def cardinality(self, edge: Iterable[Attribute],
                    default: Optional[int] = None) -> Optional[int]:
        """The estimated row count of the relation over ``edge``."""
        entry = self._by_edge.get(frozenset(edge))
        return entry.cardinality if entry is not None else default

    def distinct_count(self, edge: Iterable[Attribute], attribute: Attribute,
                       default: Optional[int] = None) -> Optional[int]:
        """The estimated distinct values of ``attribute`` within one relation."""
        entry = self._by_edge.get(frozenset(edge))
        if entry is None:
            return default
        return entry.distinct_counts.get(attribute, entry.cardinality)

    def _fallback_cardinality(self) -> int:
        """The stand-in cardinality for schemes the catalog never measured."""
        if not self._by_edge:
            return 1
        total = sum(entry.cardinality for entry in self._by_edge.values())
        return max(1, total // len(self._by_edge))

    def estimate_for(self, edge: Iterable[Attribute],
                     fallback_cardinality: Optional[int] = None) -> "JoinEstimate":
        """A symbolic relation for ``edge``: measured, or a neutral fallback.

        Unmeasured schemes get ``fallback_cardinality`` rows (the catalog's
        mean cardinality when not supplied) with every attribute fully
        distinct — deliberately uninformative, so adaptive ordering never
        *prefers* a scheme it knows nothing about.
        """
        scheme = frozenset(edge)
        entry = self._by_edge.get(scheme)
        if entry is not None:
            return entry.estimate()
        cardinality = fallback_cardinality if fallback_cardinality is not None \
            else self._fallback_cardinality()
        return JoinEstimate(scheme, cardinality,
                            {attribute: cardinality for attribute in scheme})

    def describe(self) -> str:
        """A multi-line rendering, one measured scheme per line."""
        lines = [f"StatisticsCatalog ({len(self._by_edge)} schemes)"]
        for edge in self.edges:
            lines.append(f"  {self._by_edge[edge].describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"StatisticsCatalog({len(self._by_edge)} schemes)"


# --------------------------------------------------------------------------- #
# Symbolic relations for plan simulation
# --------------------------------------------------------------------------- #
class JoinEstimate:
    """A symbolic relation: scheme + estimated cardinality + distinct counts.

    Closed under :meth:`join` and :meth:`project`, which apply the System-R
    formulas, so a whole query plan can be "executed" on estimates alone.
    Distinct counts are clamped into ``[0 or 1, cardinality]`` on every
    construction, keeping the estimates self-consistent.
    """

    __slots__ = ("attributes", "cardinality", "distincts")

    def __init__(self, attributes: Iterable[Attribute], cardinality: float,
                 distincts: Mapping[Attribute, float]) -> None:
        self.attributes: FrozenSet[Attribute] = frozenset(attributes)
        self.cardinality: float = max(float(cardinality), 0.0)
        floor = 1.0 if self.cardinality >= 1.0 else 0.0
        self.distincts: Dict[Attribute, float] = {
            attribute: max(min(float(distincts.get(attribute, self.cardinality)),
                               self.cardinality), floor)
            for attribute in self.attributes
        }

    def join(self, other: "JoinEstimate") -> "JoinEstimate":
        """The estimated natural join of two symbolic relations."""
        shared = self.attributes & other.attributes
        cardinality = self.cardinality * other.cardinality
        for attribute in shared:
            cardinality /= max(self.distincts[attribute], other.distincts[attribute], 1.0)
        merged: Dict[Attribute, float] = {}
        for attribute in self.attributes | other.attributes:
            if attribute in shared:
                merged[attribute] = min(self.distincts[attribute],
                                        other.distincts[attribute])
            elif attribute in self.attributes:
                merged[attribute] = self.distincts[attribute]
            else:
                merged[attribute] = other.distincts[attribute]
        return JoinEstimate(self.attributes | other.attributes, cardinality, merged)

    def project(self, attributes: Iterable[Attribute]) -> "JoinEstimate":
        """The estimated duplicate-eliminating projection onto ``attributes``."""
        kept = frozenset(attributes) & self.attributes
        if not kept:
            return JoinEstimate(frozenset(), min(self.cardinality, 1.0), {})
        bound = 1.0
        for attribute in kept:
            bound *= self.distincts[attribute]
        return JoinEstimate(kept, min(self.cardinality, bound), self.distincts)

    def semijoin_selectivity(self, source: "JoinEstimate") -> float:
        """The estimated surviving fraction of ``self ⋉ source``."""
        selectivity = 1.0
        for attribute in self.attributes & source.attributes:
            own = self.distincts[attribute]
            if own <= 0.0:
                continue
            selectivity *= min(1.0, source.distincts[attribute] / own)
        return selectivity

    def scaled(self, factor: float) -> "JoinEstimate":
        """The same scheme with the cardinality scaled by ``factor``."""
        return JoinEstimate(self.attributes, self.cardinality * factor, self.distincts)

    @property
    def rows(self) -> int:
        """The cardinality rounded to whole rows."""
        return _rows(self.cardinality)

    def __repr__(self) -> str:
        return (f"JoinEstimate({format_node_set(self.attributes)}, "
                f"~{self.rows} rows)")


# --------------------------------------------------------------------------- #
# Cost annotations
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CostAnnotation:
    """The data-dependent half of a plan: root, fold order, size predictions.

    ``root`` is ``None`` when the structure plan's default rooting already
    minimises the predicted largest intermediate; ``child_order`` maps each
    join-tree vertex to the order its children should be folded in during the
    bottom-up join (and the order the reducer visits sibling semijoins).
    """

    root: Optional[Edge]
    child_order: Mapping[Edge, Tuple[Edge, ...]]
    vertex_estimates: Mapping[Edge, int]
    reduced_estimates: Mapping[Edge, int]
    estimated_intermediate_sizes: Tuple[int, ...]
    estimated_output_size: int
    #: The work that priced it: rootings compared and rooting states built.
    root_candidates: int = field(default=0, compare=False)
    rooting_states: int = field(default=0, compare=False)

    @property
    def estimated_max_intermediate(self) -> int:
        """The predicted largest bottom-up intermediate (0 with no joins)."""
        return max(self.estimated_intermediate_sizes, default=0)

    def order_children(self, vertex: Edge,
                       children: Sequence[Edge]) -> Tuple[Edge, ...]:
        """``children`` re-ordered into the annotation's fold order.

        Children the annotation never saw (defensive case) keep their
        relative traversal order, after the annotated ones.
        """
        preferred = self.child_order.get(vertex)
        if not preferred:
            return tuple(children)
        rank = {child: position for position, child in enumerate(preferred)}
        fallback = len(rank)
        return tuple(sorted(children, key=lambda child: (rank.get(child, fallback),
                                                         edge_sort_key(child))))

    def describe(self) -> str:
        """A one-line summary of the annotation's headline predictions."""
        root = format_node_set(self.root) if self.root is not None else "default"
        return (f"CostAnnotation root={root} "
                f"est_max_intermediate={self.estimated_max_intermediate} "
                f"est_output={self.estimated_output_size}")


#: One rooting state of :func:`annotate_tree`'s memo, for the directed tree
#: edge ``(vertex, parent)`` (``parent`` is ``None`` at a component's root):
#: the vertex's folded partial estimate, its greedy child order, the sizes of
#: its own fold steps, and the (max, sum) of every step size in its subtree.
_RootingState = Tuple[JoinEstimate, Tuple[Edge, ...], Tuple[int, ...], int, int]


def _fold_vertex(vertex: Edge, parent: Optional[Edge], children: Sequence[Edge],
                 partials: Sequence[JoinEstimate], reduced: JoinEstimate,
                 wanted: Optional[FrozenSet[Attribute]],
                 rank: Mapping[Edge, int]
                 ) -> Tuple[JoinEstimate, Tuple[Edge, ...], Tuple[int, ...]]:
    """Simulate one vertex's step of the bottom-up join, children greedily ordered.

    Mirrors the fused-projection keeps of
    :func:`repro.engine.columnar.executor.compile_fold_program`: while a vertex
    still has unfolded children, their separators stay live; afterwards the
    partial is projected onto (wanted ∩ subtree) ∪ parent separator.  The next
    child folded is the one whose fold is predicted smallest.  ``children``
    come in the rooted traversal's order and ``partials`` are their folded
    subtrees, so the estimate is the one a simulation of the whole rooting
    computes, bit for bit.
    """
    partial_of = dict(zip(children, partials))
    current = reduced
    final_keep: Optional[FrozenSet[Attribute]] = None
    if wanted is not None:
        subtree_attributes = set(vertex)
        for partial in partials:
            subtree_attributes.update(partial.attributes)
        final_keep = frozenset(subtree_attributes) & wanted
        if parent is not None:
            final_keep |= vertex & parent
    chosen: List[Edge] = []
    steps: List[int] = []
    remaining = list(children)
    while remaining:
        best: Optional[Tuple[Tuple[float, int], Edge, JoinEstimate]] = None
        for child in remaining:
            joined = current.join(partial_of[child])
            if final_keep is not None:
                keep = set(final_keep)
                for other in remaining:
                    if other is not child:
                        keep |= vertex & other
                joined = joined.project(keep)
            key = (joined.cardinality, rank[child])
            if best is None or key < best[0]:
                best = (key, child, joined)
        assert best is not None
        _, child, current = best
        remaining.remove(child)
        chosen.append(child)
        steps.append(current.rows)
    if final_keep is not None and final_keep != current.attributes:
        current = current.project(final_keep)
    return current, tuple(chosen), tuple(steps)


class _RootingMemo:
    """Every rooting of a join forest, priced from one memo of rooting states.

    A vertex's folded partial depends only on the vertex and the neighbour it
    hangs from (its children are the other neighbours, in the descending
    canonical order the rooted traversal lists them in), so one state per
    directed tree edge — plus one per chosen root — prices every rooting:
    Σ(deg + 1) states, 3n − 2 on a tree of n vertices, where pricing each
    rooting afresh folds n vertices per candidate.
    """

    def __init__(self, tree: JoinTree, reduced: Mapping[Edge, JoinEstimate],
                 wanted: Optional[FrozenSet[Attribute]]) -> None:
        self.rank = tree.vertex_rank()
        self.adjacency = {vertex: tree.neighbours(vertex) for vertex in tree.vertices}
        self.reduced = reduced
        self.wanted = wanted
        self.states: Dict[Tuple[Edge, Optional[Edge]], _RootingState] = {}
        # Each component's default root is its first vertex in canonical order.
        self.component_of: Dict[Edge, int] = {}
        self.default_roots: List[Edge] = []
        for start in tree.canonical_vertices():
            if start in self.component_of:
                continue
            label = len(self.default_roots)
            self.default_roots.append(start)
            self.component_of[start] = label
            stack = [start]
            while stack:
                for neighbour in self.adjacency[stack.pop()]:
                    if neighbour not in self.component_of:
                        self.component_of[neighbour] = label
                        stack.append(neighbour)

    def _children(self, vertex: Edge, parent: Optional[Edge]) -> List[Edge]:
        return [neighbour for neighbour in reversed(self.adjacency[vertex])
                if neighbour != parent]

    def state(self, vertex: Edge, parent: Optional[Edge]) -> _RootingState:
        """The memoised state of ``vertex`` hanging from ``parent``."""
        states = self.states
        found = states.get((vertex, parent))
        if found is not None:
            return found
        pending: List[Tuple[Edge, Optional[Edge], bool]] = [(vertex, parent, False)]
        while pending:
            current, above, ready = pending.pop()
            if (current, above) in states:
                continue
            children = self._children(current, above)
            if not ready:
                pending.append((current, above, True))
                pending.extend((child, current, False) for child in children
                               if (child, current) not in states)
                continue
            below = [states[(child, current)] for child in children]
            partial, chosen, steps = _fold_vertex(
                current, above, children, [entry[0] for entry in below],
                self.reduced[current], self.wanted, self.rank)
            states[(current, above)] = (
                partial, chosen, steps,
                max([*steps, *(entry[3] for entry in below)], default=0),
                sum(steps) + sum(entry[4] for entry in below))
        return states[(vertex, parent)]

    def roots_for(self, root: Optional[Edge]) -> List[Edge]:
        """The component roots of the rooting at ``root``, in traversal order."""
        if root is None or not self.default_roots:
            return list(self.default_roots)
        if root not in self.component_of:
            raise HypergraphError("requested root is not a vertex of the join tree")
        home = self.component_of[root]
        return [root] + [default for label, default in enumerate(self.default_roots)
                         if label != home]

    def combine(self, roots: Sequence[Edge]) -> Tuple[Tuple[int, ...], int]:
        """The cross-component joins of one rooting: their sizes and the output size."""
        if not roots:
            return (), 0
        result = self.state(roots[0], None)[0]
        sizes: List[int] = []
        for other_root in roots[1:]:
            other = self.state(other_root, None)[0]
            result = result.join(other)
            if self.wanted is not None:
                result = result.project((result.attributes | other.attributes)
                                        & self.wanted)
            sizes.append(result.rows)
        return tuple(sizes), result.rows


def annotate_tree(tree: JoinTree, catalog: StatisticsCatalog, *,
                  output_attributes: Optional[Iterable[Attribute]] = None,
                  candidate_roots: Optional[Sequence[Optional[Edge]]] = None,
                  max_root_candidates: int = _MAX_ROOT_CANDIDATES) -> CostAnnotation:
    """Compile the cost annotation for a join tree against a catalog.

    Every candidate rooting (all vertices by default, capped at
    ``max_root_candidates``, plus the default rooting) is priced by the
    bottom-up join it predicts, each vertex folding its children greedily
    (see :func:`_fold_vertex`); the rooting with the smallest predicted
    largest intermediate wins, ties broken towards the default rooting so an
    annotation never forces a new plan compilation without a predicted
    payoff.  ``candidate_roots`` pins the simulation to explicit rootings
    (used when the caller has already fixed a root).

    The rootings share one memo of rooting states (:class:`_RootingMemo`):
    every vertex is folded once per neighbour it can hang from and once as a
    root, and only the winning rooting is traversed, to list its sizes in
    leaf-to-root order.
    """
    wanted: Optional[FrozenSet[Attribute]] = (
        frozenset(output_attributes) if output_attributes is not None else None)
    base: Dict[Edge, JoinEstimate] = {
        vertex: catalog.estimate_for(vertex) for vertex in tree.vertices}
    reduced: Dict[Edge, JoinEstimate] = {}
    for vertex in tree.vertices:
        estimate = base[vertex]
        factor = 1.0
        for neighbour in tree.neighbours(vertex):
            factor *= estimate.semijoin_selectivity(base[neighbour])
        reduced[vertex] = estimate.scaled(factor)

    if candidate_roots is not None:
        candidates: List[Optional[Edge]] = list(candidate_roots)
    elif len(tree.vertices) <= max_root_candidates:
        candidates = [None, *tree.canonical_vertices()]
    else:
        candidates = [None]

    memo = _RootingMemo(tree, reduced, wanted)
    best: Optional[Tuple[Tuple, Optional[Edge], Tuple[int, ...], int]] = None
    for root in candidates:
        roots = memo.roots_for(root)
        combined, output_estimate = memo.combine(roots)
        largest, total = max(combined, default=0), sum(combined)
        for component_root in roots:
            state = memo.state(component_root, None)
            largest, total = max(largest, state[3]), total + state[4]
        key = (largest, total, 0 if root is None else 1,
               memo.rank.get(root, -1))
        if best is None or key < best[0]:
            best = (key, root, combined, output_estimate)
    assert best is not None
    _, root, combined, output_estimate = best
    order_map: Dict[Edge, Tuple[Edge, ...]] = {}
    sizes: List[int] = []
    for vertex, parent in tree.rooted(root).leaf_to_root():
        _, chosen, steps, _, _ = memo.state(vertex, parent)
        sizes.extend(steps)
        if chosen:
            order_map[vertex] = chosen
    return CostAnnotation(
        root=root,
        child_order=order_map,
        vertex_estimates={vertex: base[vertex].rows for vertex in tree.vertices},
        reduced_estimates={vertex: reduced[vertex].rows for vertex in tree.vertices},
        estimated_intermediate_sizes=tuple(sizes) + combined,
        estimated_output_size=output_estimate,
        root_candidates=len(candidates),
        rooting_states=len(memo.states),
    )

