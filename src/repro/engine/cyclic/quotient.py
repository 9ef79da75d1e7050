"""Acyclic quotients: the virtual schema a cluster cover induces, plus cluster materialisation.

Once a :class:`~repro.engine.cyclic.covers.ClusterCover` is chosen, each
cluster becomes one *virtual relation* — the join of its member relations —
and the quotient hypergraph (one edge per cluster scheme) is acyclic by
construction, so the PR-1 planner, full reducer and bottom-up join run on it
unchanged.  This module builds and validates that quotient and materialises
the cluster relations with bounded, greedily ordered nested-loop joins (each
next member is picked to share the most attributes with what is already
joined, so equality filters apply as early as possible).

**What a cluster exports.**  The quotient meets a cluster only through the
requested outputs and the attributes the cluster shares with another cluster
— the paper's articulation sets — so when the outputs are known a
multi-member cluster is joined with the projection onto exactly those
attributes fused into every join (:func:`_materialise_physical`; the
keep-set rule of :mod:`repro.engine.fold`, one level down).  An attribute
private to a cyclic core is dropped the moment no pending member needs it.
Projecting out attributes no other relation and no output mentions commutes
with the join, so the quotient's answer is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..catalog import JoinEstimate, StatisticsCatalog

from ...core.acyclicity import is_acyclic
from ...core.hypergraph import Edge, Hypergraph
from ...core.nodes import format_node_set, sorted_nodes
from ...exceptions import ClusterBoundExceededError, CyclicHypergraphError, SchemaError
from ...relational.relation import Relation
from ...relational.schema import Attribute
from ..columnar import ColumnBlock, merge_blocks_by_scheme, natural_join_blocks
from ..semijoin import merge_relations_by_scheme, natural_join_indexed
from .covers import ClusterCover

__all__ = [
    "AcyclicQuotient",
    "materialise_clusters",
    "ClusterMaterialisation",
    "materialise_cluster_blocks",
    "ClusterBlockMaterialisation",
]


@dataclass(frozen=True)
class AcyclicQuotient:
    """A validated quotient: the original hypergraph, its cover, and the acyclic quotient."""

    original: Hypergraph
    cover: ClusterCover
    hypergraph: Hypergraph

    @classmethod
    def build(cls, original: Hypergraph, cover: ClusterCover) -> "AcyclicQuotient":
        """Validate ``cover`` against ``original`` and construct the quotient.

        Raises :class:`~repro.exceptions.SchemaError` when the cover does not
        assign exactly the original's edges and
        :class:`~repro.exceptions.CyclicHypergraphError` when the quotient is
        not acyclic (the cover search never emits such a cover; direct
        construction can).
        """
        if cover.covered_edges != original.edge_set:
            missing = original.edge_set - cover.covered_edges
            foreign = cover.covered_edges - original.edge_set
            detail = []
            if missing:
                detail.append("uncovered edges "
                              + ", ".join(format_node_set(e) for e in
                                          sorted(missing, key=lambda e: sorted_nodes(e))))
            if foreign:
                detail.append("foreign edges "
                              + ", ".join(format_node_set(e) for e in
                                          sorted(foreign, key=lambda e: sorted_nodes(e))))
            raise SchemaError("cluster cover does not match the hypergraph: "
                              + "; ".join(detail))
        quotient = cover.quotient_hypergraph(
            name=f"{original.name or 'H'}/{len(cover.clusters)} clusters")
        if not is_acyclic(quotient):
            raise CyclicHypergraphError(
                "the cover's quotient hypergraph is cyclic; the cluster "
                "grouping does not break every cycle")
        return cls(original=original, cover=cover, hypergraph=quotient)

    def describe(self) -> str:
        """A multi-line rendering: the cover plus the quotient's edges."""
        lines = [self.cover.describe(),
                 f"quotient: {self.hypergraph}"]
        return "\n".join(lines)


@dataclass(frozen=True)
class ClusterMaterialisation:
    """The materialised cluster relations plus per-step tuple accounting.

    ``estimated_intermediate_sizes`` aligns with ``intermediate_sizes`` step
    for step (empty without a catalog).
    """

    relations: Tuple[Relation, ...]
    intermediate_sizes: Tuple[int, ...]
    cluster_sizes: Tuple[int, ...]
    estimated_intermediate_sizes: Tuple[int, ...] = ()


def _greedy_member_order(members: Sequence[object],
                         catalog: Optional["StatisticsCatalog"] = None
                         ) -> Tuple[List[object], List["JoinEstimate"]]:
    """Join order inside a cluster: smallest first, then maximal attribute overlap.

    ``members`` are :class:`Relation` or :class:`ColumnBlock` values — both
    expose ``len`` and ``schema``, and the ordering keys depend on nothing
    else, so the row and columnar paths pick identical orders.

    Starting from the smallest member and always joining the relation that
    shares the most attributes with the scheme accumulated so far applies
    every equality filter as early as the cluster allows — the bounded
    nested-loop discipline for cyclic cores.

    With a ``catalog`` the overlap tie-break is replaced by estimated
    cardinality: the next member is the one whose estimated join with the
    accumulated intermediate is smallest (the System-R formula over the
    catalog's distinct counts), so a selective-but-narrow member beats a
    wide-overlap member that would multiply rows.  The estimate of every
    step taken is returned beside the order (no estimates without a
    catalog), one per intra-cluster join.
    """
    if catalog is None:
        pending = sorted(members, key=lambda r: (len(r), sorted_nodes(r.schema.attribute_set)))
        ordered = [pending.pop(0)]
        scheme = set(ordered[0].schema.attribute_set)
        while pending:
            best_index = min(
                range(len(pending)),
                key=lambda i: (-len(scheme & pending[i].schema.attribute_set),
                               len(pending[i]),
                               sorted_nodes(pending[i].schema.attribute_set)))
            chosen = pending.pop(best_index)
            scheme |= chosen.schema.attribute_set
            ordered.append(chosen)
        return ordered, []

    def estimate_of(relation: Relation):
        return catalog.estimate_for(relation.schema.attribute_set,
                                    fallback_cardinality=len(relation))

    pending = sorted(members,
                     key=lambda r: (estimate_of(r).cardinality,
                                    sorted_nodes(r.schema.attribute_set)))
    ordered = [pending.pop(0)]
    accumulated = estimate_of(ordered[0])
    steps: List["JoinEstimate"] = []
    while pending:
        best_index = min(
            range(len(pending)),
            key=lambda i: (accumulated.join(estimate_of(pending[i])).cardinality,
                           sorted_nodes(pending[i].schema.attribute_set)))
        chosen = pending.pop(best_index)
        accumulated = accumulated.join(estimate_of(chosen))
        steps.append(accumulated)
        ordered.append(chosen)
    return ordered, steps


def _materialise_physical(cover: ClusterCover, per_edge, *,
                          join, rename, probed, row_bound: Optional[int],
                          catalog: Optional["StatisticsCatalog"],
                          wanted: Optional[FrozenSet[Attribute]] = None):
    """The physical-layer-agnostic cluster loop shared by both materialisers.

    Parameterised on ``join(left, right, project_onto=keep)``,
    ``rename(item, name)`` and ``probed(item)`` (the rows a join produced
    before duplicate elimination) like the reducer's ``_run_physical`` and
    the evaluators' ``fold_join_tree``, so the member lookup, greedy
    ordering, keep-sets, ``row_bound`` discipline and tuple accounting cannot
    drift between the row and the columnar representations.

    With ``wanted`` (the requested outputs) a multi-member cluster exports
    only ``needed = scheme ∩ (wanted ∪ every other cluster's scheme)``: each
    join keeps ``needed`` plus the attributes of the members still pending.
    Singleton clusters are renamed, never projected — no join happens there,
    so a ``distinct`` would be new work; the fold projects them at their
    vertex.  ``wanted=None`` is the full join and projects nothing.

    ``row_bound`` guards the *work*: it is checked against ``probed``, not
    against what survives the projection.  Returns (items, intermediate
    sizes, cluster sizes, per-step estimates, per-step probed rows).
    """
    items: List[object] = []
    intermediates: List[int] = []
    cluster_sizes: List[int] = []
    estimates: List[int] = []
    probe_rows: List[int] = []
    schemes = [cluster.attributes for cluster in cover.clusters]
    for position, cluster in enumerate(cover.clusters):
        members = []
        for edge in cluster.sorted_edges():
            if edge not in per_edge:
                raise SchemaError(f"cluster edge {format_node_set(edge)} has no "
                                  "matching relation")
            members.append(per_edge[edge])
        current = members[0]
        if len(members) > 1:
            needed: Optional[FrozenSet[Attribute]] = None
            if wanted is not None:
                needed = schemes[position] & wanted.union(
                    *schemes[:position], *schemes[position + 1:])
            ordered, step_estimates = _greedy_member_order(members, catalog)
            current = ordered[0]
            for step, member in enumerate(ordered[1:]):
                keep = None
                if needed is not None:
                    keep = needed.union(*(pending.schema.attribute_set
                                          for pending in ordered[step + 2:]))
                current = join(current, member, project_onto=keep)
                produced = probed(current)
                intermediates.append(len(current))
                probe_rows.append(produced)
                if step_estimates:
                    estimate = step_estimates[step]
                    estimates.append((estimate if keep is None
                                      else estimate.project(keep)).rows)
                if row_bound is not None and produced > row_bound:
                    raise ClusterBoundExceededError(
                        f"cluster {cluster.describe()} produced an intermediate "
                        f"of {produced} rows (bound {row_bound})")
        renamed = rename(current, f"cluster{position}")
        items.append(renamed)
        cluster_sizes.append(len(renamed))
    return (tuple(items), tuple(intermediates), tuple(cluster_sizes),
            tuple(estimates), tuple(probe_rows))


def materialise_clusters(cover: ClusterCover, relations: Sequence[Relation], *,
                         row_bound: Optional[int] = None,
                         catalog: Optional["StatisticsCatalog"] = None
                         ) -> ClusterMaterialisation:
    """One relation per cluster: the (bounded) join of the cluster's member relations.

    Input relations are grouped by scheme (duplicates over the same scheme
    are intersected, exactly as the acyclic engine does); every cluster edge
    must have a matching relation.  ``row_bound`` caps the size of every
    intra-cluster intermediate — exceeding it raises
    :class:`~repro.exceptions.ClusterBoundExceededError` so callers can fall
    back rather than materialise a runaway core.  ``catalog`` switches the
    intra-cluster nested-loop order to estimated-cardinality-first (see
    :func:`_greedy_member_order`).  The row reference takes no outputs: it
    always materialises every cluster over its whole scheme.
    """
    items, intermediates, cluster_sizes, estimates, _ = _materialise_physical(
        cover, merge_relations_by_scheme(relations),
        join=natural_join_indexed,
        rename=lambda relation, name: Relation.from_valid_rows(
            relation.schema.rename(name), relation.rows),
        probed=len, row_bound=row_bound, catalog=catalog)
    return ClusterMaterialisation(relations=items,
                                  intermediate_sizes=intermediates,
                                  cluster_sizes=cluster_sizes,
                                  estimated_intermediate_sizes=estimates)


@dataclass(frozen=True)
class ClusterBlockMaterialisation:
    """The materialised cluster *blocks* plus per-step tuple accounting.

    ``schemes`` are the clusters' full schemes — the quotient's vertices —
    position-aligned with ``blocks``: a projected block's own attribute set
    is only the part of its vertex the cluster exports.  ``intermediate_sizes``
    are the rows each intra-cluster join *kept* (the fold's convention),
    ``probe_rows`` the rows it produced before duplicate elimination.
    """

    blocks: Tuple[ColumnBlock, ...]
    intermediate_sizes: Tuple[int, ...]
    cluster_sizes: Tuple[int, ...]
    estimated_intermediate_sizes: Tuple[int, ...] = ()
    schemes: Tuple[Edge, ...] = ()
    probe_rows: Tuple[int, ...] = ()


def materialise_cluster_blocks(cover: ClusterCover, relations: Sequence[Relation], *,
                               row_bound: Optional[int] = None,
                               catalog: Optional["StatisticsCatalog"] = None,
                               wanted: Optional[FrozenSet[Attribute]] = None
                               ) -> ClusterBlockMaterialisation:
    """One :class:`ColumnBlock` per cluster — the columnar twin of
    :func:`materialise_clusters`.

    Input relations are encoded through the per-relation block cache (so
    repeated executions over one database encode nothing), singleton clusters
    are zero-copy renames of their member's block, and multi-member clusters
    are joined with the whole-block kernel in exactly the greedy order the
    row path uses — member ordering keys (size, scheme, catalog estimates)
    are identical across representations, so without ``wanted`` the recorded
    intermediate and cluster sizes agree step for step.  With ``wanted`` (the
    query's outputs) every multi-member cluster is projected onto what it
    exports while it is joined (see :func:`_materialise_physical`);
    ``row_bound`` is then checked against each join's pre-projection rows.
    """
    items, intermediates, cluster_sizes, estimates, probe_rows = _materialise_physical(
        cover, merge_blocks_by_scheme(relations),
        join=natural_join_blocks,
        rename=lambda block, name: block.rename(name),
        probed=lambda block: block.storage_length,
        row_bound=row_bound, catalog=catalog, wanted=wanted)
    return ClusterBlockMaterialisation(
        blocks=items, intermediate_sizes=intermediates,
        cluster_sizes=cluster_sizes, estimated_intermediate_sizes=estimates,
        schemes=tuple(cluster.attributes for cluster in cover.clusters),
        probe_rows=probe_rows)
