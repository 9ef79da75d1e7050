"""Compiled cyclic plans and their cost accounting.

A :class:`CyclicExecutionPlan` is the cyclic analogue of
:class:`~repro.engine.planner.ExecutionPlan`: data-independent (it depends
only on the schema hypergraph), compiled once per chosen cover, and
cached in the planner's existing LRU under an extended key beside the
schema's cover search, which runs once per schema.  It embeds the quotient's
ordinary :class:`ExecutionPlan`, so reduction and the bottom-up join reuse the
acyclic machinery verbatim.

:class:`CyclicEngineStatistics` extends
:class:`~repro.engine.planner.EngineStatistics` with the cluster accounting
(materialised sizes and widths) and a ``savings_versus`` helper that reports
the largest-intermediate gap against another plan's statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ...relational.join_plans import JoinStatistics
from ..planner import EngineStatistics, ExecutionPlan, SchemaFingerprint, fingerprint_digest
from .covers import ClusterCover, EdgeCluster
from .quotient import AcyclicQuotient

__all__ = ["CyclicExecutionPlan", "CyclicEngineStatistics"]


@dataclass(frozen=True)
class CyclicExecutionPlan:
    """A compiled plan for one cyclic schema fingerprint: cover, quotient, inner plan.

    The cover is the static choice or a per-database catalog's; the
    candidates it was chosen from stay with the planner's cover search (see
    :meth:`QueryPlanner.cyclic_plan_for
    <repro.engine.planner.QueryPlanner.cyclic_plan_for>`).
    """

    fingerprint: SchemaFingerprint
    cover: ClusterCover
    quotient: AcyclicQuotient
    inner: ExecutionPlan
    #: Each cluster's width, computed once with the plan (every run's
    #: :class:`CyclicEngineStatistics` reports them).
    cluster_widths: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cluster_widths",
                           tuple(cluster.width for cluster in self.cover.clusters))

    @property
    def clusters(self) -> Tuple[EdgeCluster, ...]:
        """The cover's clusters, in canonical order."""
        return self.cover.clusters

    @property
    def is_trivial(self) -> bool:
        """``True`` when every cluster is a singleton (the schema was acyclic)."""
        return self.cover.is_trivial

    def describe(self) -> str:
        """A multi-line rendering: fingerprint, cover, quotient and inner plan."""
        lines = [f"CyclicExecutionPlan {fingerprint_digest(self.fingerprint)} "
                 f"({len(self.cover.clusters)} clusters, width {self.cover.width}, "
                 f"fan-out {self.cover.fan_out})",
                 self.quotient.describe(),
                 self.inner.describe()]
        return "\n".join(lines)


@dataclass
class CyclicEngineStatistics(EngineStatistics):
    """Engine accounting extended with a cyclic run's cluster counters.

    ``intermediate_sizes`` (inherited) includes the intra-cluster join steps
    *and* the quotient's bottom-up join steps — both as rows *kept* after the
    step's fused projection, with ``estimated_intermediate_sizes`` aligned
    step for step; ``cluster_sizes`` are the materialised cluster relations
    the quotient reducer then works on (for a multi-member cluster of a
    columnar run with outputs: its projection onto what the cluster exports).
    """

    cluster_sizes: Tuple[int, ...] = ()
    cluster_widths: Tuple[int, ...] = ()
    estimated_cluster_sizes: Tuple[int, ...] = ()

    @property
    def max_cluster_size(self) -> int:
        """The largest materialised cluster relation (0 with no clusters)."""
        return max(self.cluster_sizes, default=0)

    @property
    def reduction_ratio(self) -> float:
        """Fraction of *cluster* tuples removed as dangling by the quotient reducer.

        The reducer runs on the materialised cluster relations, not on the
        original inputs, so the ratio's denominator is the cluster sizes —
        the inherited definition would divide by the (smaller) original
        inputs and report fractions above 1.
        """
        total = sum(self.cluster_sizes)
        return (self.rows_removed_by_reduction / total) if total else 0.0

    def savings_versus(self, other: JoinStatistics) -> float:
        """How many times smaller this plan's largest intermediate is than ``other``'s."""
        return other.max_intermediate / max(self.max_intermediate, 1)

    def describe(self) -> str:
        """A one-line summary aligned with ``EngineStatistics.describe``."""
        base = super().describe()
        return f"{base} clusters={list(self.cluster_sizes)}"
