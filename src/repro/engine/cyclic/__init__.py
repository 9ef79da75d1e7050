"""``repro.engine.cyclic`` — decomposition-based execution for cyclic queries.

The paper's conclusion (Section 7) warns that the universal-relation
construction "will not work when the underlying structure is cyclic: then
some additional semantics, such as proposed in [8], must be applied".  This
subsystem is the engine-level reading of that pointer: instead of silently
falling back to a naive cross-product plan, cyclic query hypergraphs are

1. **covered** (:mod:`~repro.engine.cyclic.covers`) — the cyclic core is
   detected by ear removal and grouped into clusters (candidates scored by
   width and fan-out, minimal-width cover wins);
2. **quotiented** (:mod:`~repro.engine.cyclic.quotient`) — each cluster
   becomes one virtual relation, so the quotient hypergraph is acyclic by
   construction and is validated as such;
3. **compiled** (:mod:`~repro.engine.cyclic.plans` plus
   :meth:`QueryPlanner.cyclic_plan_for <repro.engine.planner.QueryPlanner.cyclic_plan_for>`)
   — the :class:`CyclicExecutionPlan` embeds the quotient's ordinary
   :class:`~repro.engine.planner.ExecutionPlan` and lives in the same LRU
   cache, keyed by an extended schema fingerprint, so cover search runs once
   per schema;
4. **executed** by the engine's one evaluator
   (:mod:`repro.engine.yannakakis`) — the step a cyclic plan adds
   (:mod:`~repro.engine.cyclic.executor`) materialises the clusters with
   bounded nested-loop joins, then the same full reducer runs on the
   quotient and the bottom-up join projects early onto the output.

Entry point: :class:`~repro.engine.session.EngineSession` —
``session.prepare(source)`` resolves ``kind == "cyclic"`` for a cyclic
schema and its executes run here, as does
``ConjunctiveQuery.evaluate(database)`` in the query layer (the naive plan
remains as an explicit opt-in only).
"""

from .covers import (
    ClusterCover,
    EdgeCluster,
    cover_score,
    enumerate_covers,
    select_cover,
)
from .plans import CyclicEngineStatistics, CyclicExecutionPlan
from .quotient import (
    AcyclicQuotient,
    ClusterBlockMaterialisation,
    materialise_cluster_blocks,
)

__all__ = [
    # cover search
    "EdgeCluster", "ClusterCover", "enumerate_covers", "select_cover",
    "cover_score",
    # quotient construction
    "AcyclicQuotient", "ClusterBlockMaterialisation", "materialise_cluster_blocks",
    # compilation
    "CyclicExecutionPlan", "CyclicEngineStatistics",
]
