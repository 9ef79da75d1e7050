"""``repro.engine`` — the Yannakakis semijoin execution engine.

This package turns the paper's acyclicity machinery into an actual query
processor.  Maier & Ullman's Section 7 claim is that for **acyclic** schemas
the objects relevant to a query are exactly the canonical connection, and
joining them need never build oversized intermediates; the classical way to
make that operational is the Bernstein–Goodman full reducer plus Yannakakis'
algorithm, both of which exist *iff* the schema's hypergraph has a join tree.

Layers (bottom-up):

* :mod:`~repro.engine.columnar` — the physical layer:
  :class:`ColumnBlock` id arrays with zero-copy selection vectors, grouped
  key encoding, whole-block semijoin/join kernels with fused
  projection, and the reduce → fold pipeline; relations are decoded only
  at the result boundary;
* :mod:`~repro.engine.reducer` — full-reducer semijoin programs compiled off
  a rooted join tree (leaf-to-root then root-to-leaf pass), with a
  proof-of-reduction check hook;
* :mod:`~repro.engine.catalog` — per-database :class:`StatisticsCatalog`
  objects (cardinalities, distinct counts, System-R estimators) and the
  :class:`CostAnnotation` compiler that simulates plans on estimates — the
  data-dependent half of two-phase planning;
* :mod:`~repro.engine.cache` — the one bounded, thread-safe
  :class:`~repro.engine.cache.LRUCache` that holds plans and prepared
  queries;
* :mod:`~repro.engine.planner` — data-independent :class:`ExecutionPlan`
  objects in an LRU cache keyed by a canonical schema fingerprint,
  composed with a database's catalog into :class:`AnnotatedPlan` by ``planner.annotate``, plus
  :class:`EngineStatistics` (a :class:`~repro.relational.join_plans.JoinStatistics`
  extension) for cost accounting with estimated-vs-actual columns;
* :mod:`~repro.engine.yannakakis` — the one evaluator a prepared query
  runs, acyclic or cyclic plan: encode → reduce → bottom-up join with early
  projection → decode, returning one :class:`EngineResult`;
* :mod:`~repro.engine.cyclic` — the cyclic-query subsystem: cover the cyclic
  core with clusters (maximal-object-style grouping), reduce the acyclic
  quotient with the same machinery, nested-loop only inside the clusters.

* :mod:`~repro.engine.session` — the unified facade: an
  :class:`EngineSession` owning the planner, the per-database statistics
  catalogs and the prepared-query cache, and :class:`PreparedQuery` objects that
  resolve dispatch + planning once and then execute many times (singly or
  batched via ``execute_many``).

Entry point: :class:`EngineSession` (or the process-wide
:func:`default_session`) — ``session.prepare(source)`` resolves
acyclic-vs-cyclic dispatch, structure planning and per-database cost
annotation exactly once; ``prepared.execute(database)`` is the hot path.
``ConjunctiveQuery.evaluate(database)`` in the query layer routes through
the default session.

:mod:`repro.relational` computes the same answers with its own plain hash
operators and imports nothing from this package; it is the reference the
engine's differential tests compare against.
"""

from .catalog import (
    CostAnnotation,
    JoinEstimate,
    RelationStatistics,
    StatisticsCatalog,
    annotate_tree,
)
from .columnar import (
    ColumnBlock,
    available_column_backends,
    block_for,
    clear_column_caches,
    column_cache_info,
    default_column_backend,
    natural_join_blocks,
    semijoin_blocks,
    set_default_column_backend,
    use_column_backend,
)
from .cache import PlanCacheInfo
from .planner import (
    DEFAULT_PLANNER,
    AnnotatedPlan,
    EngineStatistics,
    ExecutionPlan,
    QueryPlanner,
    SchemaFingerprint,
    annotate_plan,
    fingerprint_digest,
    schema_fingerprint,
)
from .reducer import (
    FullReducer,
    ReductionError,
    ReductionStep,
    ReductionTrace,
)
from .yannakakis import EngineResult
from .cyclic import (
    AcyclicQuotient,
    ClusterCover,
    CyclicEngineStatistics,
    CyclicExecutionPlan,
    EdgeCluster,
    enumerate_covers,
    select_cover,
)
from .session import (
    BatchStatistics,
    EngineSession,
    ExecutionBatch,
    ExecutionOptions,
    PreparedQuery,
    default_session,
)

__all__ = [
    # columnar physical layer
    "ColumnBlock", "block_for", "column_cache_info", "clear_column_caches",
    "semijoin_blocks", "natural_join_blocks",
    "available_column_backends", "default_column_backend",
    "set_default_column_backend", "use_column_backend",
    # reducer
    "FullReducer", "ReductionStep", "ReductionTrace", "ReductionError",
    # statistics catalog / cost annotation
    "RelationStatistics", "StatisticsCatalog", "JoinEstimate", "CostAnnotation",
    "annotate_tree",
    # planning
    "ExecutionPlan", "AnnotatedPlan", "annotate_plan",
    "EngineStatistics", "QueryPlanner", "PlanCacheInfo",
    "SchemaFingerprint", "schema_fingerprint", "fingerprint_digest", "DEFAULT_PLANNER",
    # sessions (the unified facade)
    "EngineSession", "PreparedQuery", "ExecutionOptions",
    "ExecutionBatch", "BatchStatistics", "default_session",
    # results
    "EngineResult",
    # cyclic subsystem
    "EdgeCluster", "ClusterCover", "enumerate_covers", "select_cover",
    "AcyclicQuotient", "CyclicExecutionPlan", "CyclicEngineStatistics",
]
