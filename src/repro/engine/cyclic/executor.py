"""The step a cyclic plan adds in front of the engine run: materialise the clusters.

A :class:`CyclicExecutionPlan` (cover search ran once per schema
fingerprint) is run by the same evaluator as an acyclic plan
(:func:`repro.engine.yannakakis._evaluate_bound`); what it adds is one step
before encode:

* **materialise** — evaluate every non-trivial cluster with a bounded,
  greedily ordered nested-loop join, projected onto what the cluster
  exports: the requested outputs and the attributes it shares with another
  cluster (:func:`~repro.engine.cyclic.quotient.materialise_cluster_blocks`);
  adaptively, the quotient is then annotated with an exact catalog of the
  materialised clusters.

The evaluator feeds the cluster blocks to the shared encode → reduce → fold
→ decode run: the quotient is acyclic by construction, so the full reducer
removes every dangling cluster tuple and the bottom-up join with fused
projection keeps the quotient-level intermediates inside the output +
reduced-input bound.  Only the intra-cluster joins can exceed that bound,
and they are confined to the cyclic cores — exactly the paper's "additional
semantics … must be applied" boundary made operational.
"""

from __future__ import annotations

from time import perf_counter
from typing import FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from ...core.nodes import sorted_nodes
from ...relational.relation import Relation
from ...relational.schema import Attribute
from ..catalog import StatisticsCatalog
from ..columnar.executor import catalog_from_blocks
from ..planner import AnnotatedPlan, annotate_plan
from ...telemetry.tracing import current_tracer
from .plans import CyclicExecutionPlan
from .quotient import ClusterBlockMaterialisation, materialise_cluster_blocks

__all__: List[str] = []


class _Clusters(NamedTuple):
    """What materialisation leaves for the rest of a cyclic run."""

    materialised: ClusterBlockMaterialisation
    #: The quotient's cost annotation (``None`` on a static run).
    annotated: Optional[AnnotatedPlan]
    #: The catalog's per-cluster row estimates (``()`` on a static run).
    estimated_sizes: tuple


def _materialise_clusters(plan: CyclicExecutionPlan, relations: Sequence[Relation],
                          wanted: Optional[FrozenSet[Attribute]], *,
                          catalog: Optional[StatisticsCatalog],
                          cluster_row_bound: Optional[int],
                          previous: Optional[_Clusters], backend_name: str,
                          lookups: List[int]) -> Tuple[_Clusters, float, float]:
    """Materialise ``plan``'s clusters and annotate its quotient.

    Returns ``(clusters, materialise seconds, annotate seconds)``.  The
    evaluator calls this inside its backend scope, so materialisation runs
    on the prepared backend, and hands it the run's block-lookup tally,
    ``lookups``.

    ``catalog`` switches on adaptive execution: the intra-cluster
    nested-loop order follows its estimates, and the quotient is annotated
    with a fresh *exact* catalog of the just-materialised cluster relations
    (their sizes are known the moment they exist, so that annotation is
    free).  ``cluster_row_bound`` caps intra-cluster intermediates
    (:class:`~repro.exceptions.ClusterBoundExceededError` beyond it),
    checked against the rows each intra-cluster join produced *before* the
    projection onto what its cluster exports.

    ``previous`` is the binding's memoised clusters of the current interner
    generation, if any (:class:`~repro.engine.yannakakis._WarmPrepare`).
    Cluster blocks are immutable and fully determined by the cover, the
    relations, the catalog, the outputs and the row bound — all fixed by
    the binding — so they, their estimates and the quotient annotation
    stand, and are returned as they are.
    """
    materialise_span = current_tracer().span("materialise")
    materialise_started = perf_counter()
    with materialise_span:
        if previous is None:
            materialised = materialise_cluster_blocks(plan.cover, relations,
                                                      row_bound=cluster_row_bound,
                                                      catalog=catalog,
                                                      wanted=wanted,
                                                      lookups=lookups)
        else:
            materialised = previous.materialised
        if materialise_span.is_recording:
            _describe_materialise(materialise_span, plan, materialised,
                                  backend_name, cached=previous is not None)
    materialise_seconds = perf_counter() - materialise_started
    if previous is not None:
        return previous, materialise_seconds, 0.0
    # The quotient plan is executed from the cyclic plan itself — no second
    # planner lookup, so a small LRU never thrashes between the cyclic plan
    # and its own embedded quotient plan.
    estimated_sizes: tuple = ()
    if catalog is not None:
        estimated_sizes = tuple(cluster.estimated_rows(catalog)
                                for cluster in plan.clusters)
    annotate_started = perf_counter()
    annotated = None
    if catalog is not None:
        annotated = annotate_plan(
            plan.inner,
            catalog_from_blocks(materialised.blocks, materialised.schemes),
            output_attributes=wanted)
    return (_Clusters(materialised, annotated, estimated_sizes),
            materialise_seconds, perf_counter() - annotate_started)


def _describe_materialise(span, plan: CyclicExecutionPlan,
                         materialised: ClusterBlockMaterialisation,
                         backend_name: str, *, cached: bool) -> None:
    """Set a recording ``materialise`` span's attributes (EXPLAIN ANALYZE reads them)."""
    span.set("backend", backend_name)
    span.set("cached", cached)
    span.set("cluster_sizes", list(materialised.cluster_sizes))
    span.set("intermediates", list(materialised.intermediate_sizes))
    span.set("probe_rows", list(materialised.probe_rows))
    span.set("fan_out", [cluster.fan_out for cluster in plan.clusters])
    span.set("schemes", [list(sorted_nodes(scheme))
                         for scheme in materialised.schemes])
    span.set("kept", [list(sorted_nodes(block.attribute_set))
                      for block in materialised.blocks])
