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
from typing import Any, FrozenSet, List, Optional, Sequence, Tuple

from ...core.nodes import sorted_nodes
from ...relational.relation import Relation
from ...relational.schema import Attribute
from ..catalog import StatisticsCatalog
from ..columnar import current_interner
from ..columnar.executor import catalog_from_blocks
from ..deadline import check_deadline
from ..planner import AnnotatedPlan, annotate_plan
from ...telemetry.tracing import current_tracer
from .plans import CyclicExecutionPlan
from .quotient import ClusterBlockMaterialisation, materialise_cluster_blocks

__all__: List[str] = []


# --------------------------------------------------------------------------- #
# Warm-prepare memoisation
# --------------------------------------------------------------------------- #
class _WarmPrepare:
    """The prepare-phase artefacts of one database binding, memoised.

    A warm cyclic run re-executes the same plan over the same relations,
    catalog and outputs — a :class:`~repro.engine.session.PreparedQuery`'s
    binding fixes all four — yet would re-derive three artefacts every time:
    the per-cluster cardinality estimates, the materialised cluster blocks
    and the quotient-level cost annotation.  The binding owns one of these
    memos, so it lives and dies with its database.  Only the row bound and
    the interner generation are checked on a hit.  Fields hold tuples so a
    racing rebuild swaps atomically — equivalent values, last write wins,
    matching the storage-cache contract in :mod:`repro.engine.columnar.block`.
    """

    __slots__ = ("estimated_cluster_sizes", "materialised_state",
                 "annotated_state")

    def __init__(self) -> None:
        self.estimated_cluster_sizes: Optional[tuple] = None
        #: (row_bound, interner, materialisation) or None.
        self.materialised_state: Optional[Tuple[Any, Any, Any]] = None
        #: (materialisation identity, annotated plan) or None.
        self.annotated_state: Optional[Tuple[Any, Any]] = None


def _materialise_clusters(plan: CyclicExecutionPlan, relations: Sequence[Relation],
                          wanted: Optional[FrozenSet[Attribute]], *,
                          catalog: Optional[StatisticsCatalog],
                          cluster_row_bound: Optional[int],
                          warm: _WarmPrepare, backend_name: str,
                          lookups: List[int],
                          ) -> Tuple[ClusterBlockMaterialisation,
                                     Optional[AnnotatedPlan], tuple, float, float]:
    """Materialise ``plan``'s clusters and annotate its quotient.

    Returns ``(materialised, quotient annotation, estimated cluster sizes,
    materialise seconds, annotate seconds)``.  The evaluator calls this
    inside its backend scope, so materialisation runs on the prepared
    backend, and hands it the run's block-lookup tally.

    ``catalog`` switches on adaptive execution: the intra-cluster
    nested-loop order follows its estimates, and the quotient is annotated
    with a fresh *exact* catalog of the just-materialised cluster relations
    (their sizes are known the moment they exist, so that annotation is
    free).  ``cluster_row_bound`` caps intra-cluster intermediates
    (:class:`~repro.exceptions.ClusterBoundExceededError` beyond it),
    checked against the rows each intra-cluster join produced *before* the
    projection onto what its cluster exports.  ``warm`` is the binding's
    memo of all three artefacts; ``lookups`` the run's ``[hits, misses]``
    tally of block-cache lookups.
    """
    estimated_cluster_sizes: tuple = ()
    if catalog is not None:
        estimated_cluster_sizes = warm.estimated_cluster_sizes
        if estimated_cluster_sizes is None:
            estimated_cluster_sizes = warm.estimated_cluster_sizes = tuple(
                cluster.estimated_rows(catalog) for cluster in plan.clusters)
    materialise_span = current_tracer().span("materialise")
    materialise_started = perf_counter()
    with materialise_span:
        # Cluster blocks are immutable and fully determined by the cover,
        # the relation tuple, the catalog's order keys and the outputs — all
        # fixed by the binding — so a warm run with the same row bound and
        # interner generation reuses them outright: materialisation
        # dominated warm cyclic prepare time.
        interner = current_interner()
        cached = warm.materialised_state
        if cached is not None and cached[0] == cluster_row_bound \
                and cached[1] is interner:
            materialised = cached[2]
            materialise_cached = True
        else:
            materialised = materialise_cluster_blocks(plan.cover, relations,
                                                      row_bound=cluster_row_bound,
                                                      catalog=catalog,
                                                      wanted=wanted,
                                                      lookups=lookups)
            warm.materialised_state = (cluster_row_bound, interner,
                                       materialised)
            materialise_cached = False
        if materialise_span.is_recording:
            materialise_span.set("backend", backend_name)
            materialise_span.set("cached", materialise_cached)
            materialise_span.set("cluster_sizes",
                                 list(materialised.cluster_sizes))
            materialise_span.set("intermediates",
                                 list(materialised.intermediate_sizes))
            materialise_span.set("probe_rows",
                                 list(materialised.probe_rows))
            materialise_span.set("fan_out", [cluster.fan_out
                                             for cluster in plan.clusters])
            materialise_span.set("schemes", [list(sorted_nodes(scheme))
                                             for scheme in materialised.schemes])
            materialise_span.set("kept", [list(sorted_nodes(block.attribute_set))
                                          for block in materialised.blocks])
    materialise_seconds = perf_counter() - materialise_started
    check_deadline("encode")
    # The quotient plan is executed from the cyclic plan itself — no second
    # planner lookup, so a small LRU never thrashes between the cyclic plan
    # and its own embedded quotient plan.
    annotate_started = perf_counter()
    annotated = None
    if catalog is not None:
        annotated_state = warm.annotated_state
        if annotated_state is not None and annotated_state[0] is materialised:
            annotated = annotated_state[1]
        else:
            annotated = annotate_plan(
                plan.inner,
                catalog_from_blocks(materialised.blocks, materialised.schemes),
                output_attributes=wanted)
            warm.annotated_state = (materialised, annotated)
    return (materialised, annotated, estimated_cluster_sizes,
            materialise_seconds, perf_counter() - annotate_started)
