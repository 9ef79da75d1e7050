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
attributes fused into every join (:func:`materialise_cluster_blocks`; the
keep-set rule of the join fold, one level down).  An attribute
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
from ...core.nodes import edge_sort_key, format_node_set
from ...exceptions import ClusterBoundExceededError, CyclicHypergraphError, SchemaError
from ...relational.relation import Relation
from ...relational.schema import Attribute
from ..columnar import ColumnBlock, merge_blocks_by_scheme, natural_join_blocks
from .covers import ClusterCover

__all__ = [
    "AcyclicQuotient",
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
                                          sorted(missing, key=edge_sort_key)))
            if foreign:
                detail.append("foreign edges "
                              + ", ".join(format_node_set(e) for e in
                                          sorted(foreign, key=edge_sort_key)))
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


def _greedy_member_order(members: Sequence[ColumnBlock],
                         catalog: Optional["StatisticsCatalog"] = None
                         ) -> Tuple[List[ColumnBlock], List["JoinEstimate"]]:
    """Join order inside a cluster: smallest first, then maximal attribute overlap.

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
        pending = sorted(members, key=lambda r: (len(r), edge_sort_key(r.schema.attribute_set)))
        ordered = [pending.pop(0)]
        scheme = set(ordered[0].schema.attribute_set)
        while pending:
            best_index = min(
                range(len(pending)),
                key=lambda i: (-len(scheme & pending[i].schema.attribute_set),
                               len(pending[i]),
                               edge_sort_key(pending[i].schema.attribute_set)))
            chosen = pending.pop(best_index)
            scheme |= chosen.schema.attribute_set
            ordered.append(chosen)
        return ordered, []

    def estimate_of(block: ColumnBlock):
        return catalog.estimate_for(block.schema.attribute_set,
                                    fallback_cardinality=len(block))

    pending = sorted(members,
                     key=lambda r: (estimate_of(r).cardinality,
                                    edge_sort_key(r.schema.attribute_set)))
    ordered = [pending.pop(0)]
    accumulated = estimate_of(ordered[0])
    steps: List["JoinEstimate"] = []
    while pending:
        best_index = min(
            range(len(pending)),
            key=lambda i: (accumulated.join(estimate_of(pending[i])).cardinality,
                           edge_sort_key(pending[i].schema.attribute_set)))
        chosen = pending.pop(best_index)
        accumulated = accumulated.join(estimate_of(chosen))
        steps.append(accumulated)
        ordered.append(chosen)
    return ordered, steps


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
                               wanted: Optional[FrozenSet[Attribute]] = None,
                               lookups: Optional[List[int]] = None
                               ) -> ClusterBlockMaterialisation:
    """One :class:`ColumnBlock` per cluster: the (bounded) join of its member relations.

    Input relations are encoded through the per-relation block cache (so
    repeated executions over one database encode nothing) and grouped by
    scheme (duplicates over the same scheme are intersected, exactly as the
    acyclic engine does); every cluster edge must have a matching relation.
    Singleton clusters are zero-copy renames of their member's block, never
    projected — no join happens there, so a ``distinct`` would be new work;
    the fold projects them at their vertex.  Multi-member clusters are
    joined with the whole-block kernel in the greedy order of
    :func:`_greedy_member_order` (``catalog`` switches it to
    estimated-cardinality-first).

    With ``wanted`` (the query's outputs) a multi-member cluster exports
    only ``needed = scheme ∩ (wanted ∪ every other cluster's scheme)``: each
    join keeps ``needed`` plus the attributes of the members still pending.
    ``wanted=None`` is the full join and projects nothing.

    ``row_bound`` guards the *work*: every intra-cluster join's rows before
    projection (its storage length) are checked against it, and exceeding
    it raises :class:`~repro.exceptions.ClusterBoundExceededError` so
    callers can fall back rather than materialise a runaway core.
    ``lookups`` is the caller's ``[hits, misses]`` tally of block-cache
    lookups.
    """
    per_edge = merge_blocks_by_scheme(relations, lookups=lookups)
    blocks: List[ColumnBlock] = []
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
                current = natural_join_blocks(current, member, project_onto=keep)
                produced = current.storage_length
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
        renamed = current.rename(f"cluster{position}")
        blocks.append(renamed)
        cluster_sizes.append(len(renamed))
    return ClusterBlockMaterialisation(
        blocks=tuple(blocks), intermediate_sizes=tuple(intermediates),
        cluster_sizes=tuple(cluster_sizes),
        estimated_intermediate_sizes=tuple(estimates),
        schemes=tuple(schemes), probe_rows=tuple(probe_rows))
