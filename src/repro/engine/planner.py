"""Plan objects, cost/statistics accounting and the LRU plan cache.

Deriving an execution plan for an acyclic schema means running GYO / the
maximum-weight-spanning-tree construction, validating the running-intersection
property, rooting the tree and compiling the full reducer — all of which
depend only on the schema's *hypergraph*, not on the stored tuples.  The
planner therefore caches compiled :class:`ExecutionPlan` objects in an LRU
keyed by a canonical **schema fingerprint**, so repeated queries over the
same hypergraph skip the whole analysis.

Planning is two-phase.  The fingerprint-cached :class:`ExecutionPlan` is the
**structure plan** (:meth:`QueryPlanner.plan_for`); handing it a
per-database :class:`~repro.engine.catalog.StatisticsCatalog` through
:meth:`QueryPlanner.annotate` yields an :class:`AnnotatedPlan`
— the same structure plus a data-dependent
:class:`~repro.engine.catalog.CostAnnotation`: a cardinality-chosen root, a
per-parent fold order and a cost-ordered reducer.  Annotations are cheap and
never cached; the structure cache is untouched (a re-rooted structure is just
another ``(fingerprint, root)`` entry).

:class:`EngineStatistics` absorbs the tuple-count accounting of
:class:`~repro.relational.join_plans.JoinStatistics` (so benchmark tables can
compare engines and naive plans side by side) and extends it with semijoin,
reduction, cache and estimated-vs-actual counters.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cyclic imports planner)
    from .cyclic.covers import ClusterCover
    from .cyclic.plans import CyclicExecutionPlan

from ..core.hypergraph import Edge, Hypergraph
from ..core.join_tree import JoinTree, RootedJoinTree, build_join_tree
from ..core.nodes import edge_sort_key, sorted_nodes
from ..exceptions import CyclicHypergraphError
from ..relational.join_plans import JoinStatistics
from ..relational.schema import DatabaseSchema
from ..telemetry.tracing import current_tracer
from .cache import LRUCache, PlanCacheInfo
from .catalog import CostAnnotation, StatisticsCatalog, annotate_tree
from .reducer import FullReducer

__all__ = [
    "SchemaFingerprint",
    "schema_fingerprint",
    "EngineStatistics",
    "ExecutionPlan",
    "AnnotatedPlan",
    "annotate_plan",
    "QueryPlanner",
    "DEFAULT_PLANNER",
]

SchemaFingerprint = Tuple[Tuple[object, ...], ...]

#: Cache-key tag distinguishing cyclic plans from acyclic ones in the shared LRU.
_CYCLIC_KIND = "cyclic"


def schema_fingerprint(source: Union[Hypergraph, DatabaseSchema, Iterable[Iterable[object]]]
                       ) -> SchemaFingerprint:
    """A canonical, hashable fingerprint of a hypergraph / database schema.

    The fingerprint is the sorted tuple of sorted edges, so it is invariant
    under edge order, duplicate edges and attribute order — any two schemas
    with the same objects over the same attributes plan identically.
    """
    if isinstance(source, DatabaseSchema):
        edges: Iterable[Iterable[object]] = (r.attribute_set for r in source)
    elif isinstance(source, Hypergraph):
        edges = source.edges
    else:
        edges = source
    canonical = sorted({tuple(sorted_nodes(edge)) for edge in edges}, key=edge_sort_key)
    return tuple(canonical)


def fingerprint_digest(fingerprint: SchemaFingerprint) -> str:
    """A short hex digest of a fingerprint, for logs and plan descriptions."""
    return hashlib.sha256(repr(fingerprint).encode("utf-8")).hexdigest()[:12]


@dataclass
class EngineStatistics(JoinStatistics):
    """Join-plan accounting extended with the engine's semijoin/caching counters.

    ``intermediate_sizes`` (inherited) records the materialised size after
    every bottom-up join step *with projection already fused in* — the number
    the acyclicity story bounds.  ``reduced_sizes`` are the per-vertex sizes
    after the full-reducer passes.
    """

    semijoin_steps: int = 0
    rows_removed_by_reduction: int = 0
    reduced_sizes: Tuple[int, ...] = ()
    plan_cache_hit: bool = False
    #: Physical-structure cache traffic during the run: hits and misses of
    #: the per-relation block cache, so "how much of the encode work was
    #: reused" is observable per run and in reports.
    index_cache_hits: int = 0
    index_cache_misses: int = 0
    #: The column-buffer backend the run computed on (``"array"`` or
    #: ``"numpy"``); ``None`` only for statistics built by hand.
    column_backend: Optional[str] = None
    adaptive: bool = False
    estimated_intermediate_sizes: Tuple[int, ...] = ()
    estimated_output_size: Optional[int] = None
    #: Measured per-phase wall-times of the run, as ``(phase name, seconds)``
    #: pairs in execution order — e.g. ``prepare``/``encode``/``reduce``/
    #: ``fold``/``decode`` for an acyclic plan, with ``materialise`` after
    #: ``prepare`` for a cyclic one, and only ``prepare`` for a served run.
    #: Empty for results produced before timing existed, so reports must
    #: treat it as optional.
    phase_times: Tuple[Tuple[str, float], ...] = ()
    #: ``True`` when the call was served from its database binding's
    #: memoised outcome: no phase ran, and every other field is the
    #: accounting of the run that stored the outcome.
    served: bool = False

    @property
    def elapsed_seconds(self) -> Optional[float]:
        """Total measured wall-time (``None`` when the run was not timed)."""
        if not self.phase_times:
            return None
        return sum(seconds for _, seconds in self.phase_times)

    @property
    def max_reduced_input(self) -> int:
        """The largest relation after reduction (0 when nothing was reduced)."""
        return max(self.reduced_sizes, default=0)

    @property
    def estimated_max_intermediate(self) -> Optional[int]:
        """The annotation's predicted largest intermediate (``None`` when static)."""
        if not self.adaptive:
            return None
        return max(self.estimated_intermediate_sizes, default=0)

    @property
    def reduction_ratio(self) -> float:
        """Fraction of stored tuples removed as dangling by the reducer."""
        total = sum(self.input_sizes)
        return (self.rows_removed_by_reduction / total) if total else 0.0

    def describe(self) -> str:
        """A one-line summary aligned with ``JoinStatistics.describe``."""
        base = super().describe()
        summary = (f"{base} backend={self.column_backend} "
                   f"semijoins={self.semijoin_steps} "
                   f"removed={self.rows_removed_by_reduction} "
                   f"reduced={list(self.reduced_sizes)} "
                   f"plan_cache={'hit' if self.plan_cache_hit else 'miss'} "
                   f"index_cache={self.index_cache_hits}h/{self.index_cache_misses}m")
        if self.served:
            summary += " served"
        if self.adaptive:
            summary += (f" adaptive est_max={self.estimated_max_intermediate} "
                        f"est_output={self.estimated_output_size}")
        if self.phase_times:
            phases = " ".join(f"{phase}={seconds * 1000:.2f}ms"
                              for phase, seconds in self.phase_times)
            summary += f" wall={self.elapsed_seconds * 1000:.2f}ms ({phases})"
        return summary


@dataclass(frozen=True)
class ExecutionPlan:
    """A compiled plan for one schema fingerprint: join tree, rooting, reducer.

    Plans are data-independent; the same plan evaluates every database whose
    schema has the plan's fingerprint.
    """

    fingerprint: SchemaFingerprint
    join_tree: JoinTree
    rooted: RootedJoinTree
    reducer: FullReducer
    root: Optional[Edge] = None

    @property
    def vertices(self) -> Tuple[Edge, ...]:
        """The join-tree vertices (hypergraph edges), in tree-vertex order."""
        return self.join_tree.vertices

    def describe(self) -> str:
        """A multi-line plan rendering: fingerprint, tree and reducer program."""
        return _describe_plan(self, self.reducer)


@dataclass(frozen=True)
class AnnotatedPlan:
    """A structure plan composed with a per-database cost annotation.

    The structure half is a fingerprint-cached :class:`ExecutionPlan` (a new
    rooting is just another cache entry — the cache is never invalidated);
    the annotation half is data-dependent and recomputed per database.
    ``reducer`` is the structure plan's full reducer with its sibling
    semijoins re-ordered smallest-estimated-first.
    """

    structure: ExecutionPlan
    catalog: StatisticsCatalog
    annotation: CostAnnotation
    reducer: FullReducer

    # Structure proxies, so the evaluator treats annotated and plain plans
    # uniformly.
    @property
    def fingerprint(self) -> SchemaFingerprint:
        """The structure plan's schema fingerprint."""
        return self.structure.fingerprint

    @property
    def join_tree(self) -> JoinTree:
        """The structure plan's join tree."""
        return self.structure.join_tree

    @property
    def rooted(self) -> RootedJoinTree:
        """The structure plan's (annotation-chosen) rooting."""
        return self.structure.rooted

    @property
    def vertices(self) -> Tuple[Edge, ...]:
        """The join-tree vertices, in tree-vertex order."""
        return self.structure.vertices

    @property
    def root(self) -> Optional[Edge]:
        """The structure plan's requested root."""
        return self.structure.root

    def order_children(self, vertex: Edge,
                       children: Sequence[Edge]) -> Tuple[Edge, ...]:
        """The annotation's fold order for one vertex's children."""
        return self.annotation.order_children(vertex, children)

    def describe(self) -> str:
        """The plan that runs: the (re-rooted) structure with the cost-ordered
        reducer, plus the annotation summary."""
        return "\n".join([_describe_plan(self.structure, self.reducer),
                          self.annotation.describe()])


def _describe_plan(structure: ExecutionPlan, reducer: FullReducer) -> str:
    """A structure plan's fingerprint and tree, with ``reducer`` as its program."""
    return "\n".join([f"ExecutionPlan {fingerprint_digest(structure.fingerprint)} "
                      f"({len(structure.vertices)} vertices, "
                      f"{len(reducer)} semijoin steps)",
                      structure.join_tree.describe(),
                      reducer.describe()])


def _compile(fingerprint: SchemaFingerprint, tree: JoinTree,
             root: Optional[Edge]) -> ExecutionPlan:
    """The structure plan rooting a validated join tree at ``root``."""
    reducer = FullReducer.from_join_tree(tree, root)
    return ExecutionPlan(fingerprint=fingerprint, join_tree=tree,
                         rooted=reducer.rooted, reducer=reducer, root=root)


def annotate_plan(structure: ExecutionPlan, catalog: StatisticsCatalog, *,
                  output_attributes: Optional[Iterable[object]] = None
                  ) -> AnnotatedPlan:
    """Annotate an already-rooted structure plan without changing its rooting.

    The annotation's root candidates are pinned to the plan's current
    rooting, so only the sibling semijoin order and the child fold order
    adapt — the path used when a caller supplies a pre-compiled plan (e.g.
    the quotient plan a cyclic plan embeds).  Use
    :meth:`QueryPlanner.annotate` when the rooting itself should be chosen
    from the catalog.
    """
    span = current_tracer().span("annotate")
    with span:
        roots = structure.rooted.roots
        annotation = annotate_tree(
            structure.join_tree, catalog, output_attributes=output_attributes,
            candidate_roots=[roots[0] if roots else None])
        reducer = structure.reducer.with_cost_order(annotation.reduced_estimates)
        if span.is_recording:
            span.set("vertices", len(structure.vertices))
            span.set("pinned_root", True)
            span.set("root_candidates", annotation.root_candidates)
            span.set("rooting_states", annotation.rooting_states)
        return AnnotatedPlan(structure=structure, catalog=catalog,
                             annotation=annotation, reducer=reducer)


class _CoverSearch:
    """A cyclic schema's planner entry: its candidate covers and, once compiled, its static plan."""

    __slots__ = ("candidates", "static", "_lock")

    def __init__(self, candidates: Tuple["ClusterCover", ...]) -> None:
        self.candidates = candidates
        self.static: Optional["CyclicExecutionPlan"] = None
        self._lock = threading.Lock()

    def static_plan(self, compile_plan: Callable[[], "CyclicExecutionPlan"]
                    ) -> "CyclicExecutionPlan":
        """The static plan, compiled by ``compile_plan`` on the first request only."""
        with self._lock:
            if self.static is None:
                self.static = compile_plan()
            return self.static


class QueryPlanner:
    """Compiles and caches execution plans, LRU-evicted by schema fingerprint.

    One planner can serve many databases and queries; the module-level
    :data:`DEFAULT_PLANNER` is what the high-level entry points use, so a
    workload that poses repeated queries over one schema performs the GYO /
    join-tree analysis exactly once.

    Plans live in one :class:`~repro.engine.cache.LRUCache`, safe under
    concurrent ``plan_for`` / ``cyclic_plan_for`` calls and compiling
    outside its lock.  A compilation that raises (a cyclic schema asked for
    a join tree) stores and counts nothing.
    """

    def __init__(self, capacity: int = 128) -> None:
        # Keys are (fingerprint, root) for acyclic plans,
        # (_CYCLIC_KIND, fingerprint) for a cyclic schema's cover search and
        # static plan, and (_CYCLIC_KIND, fingerprint, cover) for a plan a
        # catalog chose — one LRU serves them all.
        self._cache: LRUCache[object] = LRUCache(capacity)

    @property
    def capacity(self) -> int:
        """The maximum number of cached plans."""
        return self._cache.capacity

    def plan_for(self, hypergraph: Hypergraph, *,
                 root: Optional[Edge] = None) -> ExecutionPlan:
        """The data-independent execution plan for ``hypergraph`` (compiled or from cache).

        :meth:`annotate` composes it with a database's statistics catalog —
        the adaptive entry point.

        Raises :class:`CyclicHypergraphError` when the hypergraph admits no
        join tree — cyclic schemas have no full reducer, so the engine cannot
        plan them (callers dispatch to :meth:`cyclic_plan_for` instead).
        """
        fingerprint = schema_fingerprint(hypergraph)

        def compile_plan() -> ExecutionPlan:
            tree = build_join_tree(hypergraph)
            if tree is None:
                raise CyclicHypergraphError(
                    "the schema's hypergraph is cyclic: no join tree, hence no "
                    "full reducer — use the cyclic subsystem (or the naive plan)")
            return _compile(fingerprint, tree, root)

        return self._cache.get_or_build((fingerprint, root), compile_plan)

    def annotate(self, hypergraph: Hypergraph, catalog: StatisticsCatalog, *,
                 output_attributes: Optional[Iterable[object]] = None,
                 root: Optional[Edge] = None) -> AnnotatedPlan:
        """Compose the cached structure plan with a fresh cost annotation.

        The annotation may pick a different root than the default structure
        plan (it prices every candidate rooting against the catalog);
        re-rooted structures are ordinary ``(fingerprint, root)`` cache
        entries, so adapting never invalidates or bypasses the LRU.  An
        explicit ``root`` pins the rooting and only adapts the orders.
        """
        base = self.plan_for(hypergraph, root=root)
        if root is not None:
            return annotate_plan(base, catalog, output_attributes=output_attributes)
        span = current_tracer().span("annotate")
        with span:
            annotation = annotate_tree(base.join_tree, catalog,
                                       output_attributes=output_attributes)
            rooted_at = annotation.root
            # A re-rooted structure shares the base plan's validated join
            # tree: the schema is not analysed a second time.
            structure = base if rooted_at is None else self._cache.get_or_build(
                (base.fingerprint, rooted_at),
                lambda: _compile(base.fingerprint, base.join_tree, rooted_at))
            reducer = structure.reducer.with_cost_order(annotation.reduced_estimates)
            if span.is_recording:
                span.set("vertices", len(structure.vertices))
                span.set("pinned_root", False)
                span.set("rerooted", rooted_at is not None)
                span.set("root_candidates", annotation.root_candidates)
                span.set("rooting_states", annotation.rooting_states)
            return AnnotatedPlan(structure=structure, catalog=catalog,
                                 annotation=annotation, reducer=reducer)

    def search_covers(self, hypergraph: Hypergraph) -> SchemaFingerprint:
        """Run the schema's cover search (or find it cached); compile no plan.

        Returns the fingerprint the search is cached under.  An adaptive
        session's cyclic ``prepare`` stops here: each database's binding
        picks its cover from the cached candidates and compiles only that
        cover's plan (:meth:`cyclic_plan_for` with a ``catalog``).
        """
        fingerprint = schema_fingerprint(hypergraph)
        self._cover_search(hypergraph, fingerprint, compile_static=False)
        return fingerprint

    def cyclic_plan_for(self, hypergraph: Hypergraph, *,
                        catalog: Optional[StatisticsCatalog] = None
                        ) -> "CyclicExecutionPlan":
        """The cyclic execution plan for ``hypergraph`` (compiled or from cache).

        Works for acyclic hypergraphs too (the cover is trivially all
        singletons).  A cyclic schema holds one entry of the shared LRU,
        under ``(_CYCLIC_KIND, fingerprint)``: its candidate covers, searched
        once per schema, and the static plan — the statically chosen cover,
        its validated acyclic quotient and the quotient's embedded
        :class:`ExecutionPlan` (itself an ordinary ``(fingerprint, root)``
        entry) — compiled on the first call without a ``catalog``.

        With a ``catalog``, the candidates are scored once by estimated
        cluster-join cardinality (the data-dependent tie-break of
        :func:`repro.engine.cyclic.covers.cover_score`) and only the winner
        is compiled: the static plan when it is compiled already and chose
        the same cover, else a plan cached under ``(_CYCLIC_KIND,
        fingerprint, cover)``, so any catalog picking the same cover gets the
        same plan.
        """
        from .cyclic.covers import select_cover

        fingerprint = schema_fingerprint(hypergraph)
        search = self._cover_search(hypergraph, fingerprint,
                                    compile_static=catalog is None)
        if catalog is None:
            return search.static
        best = select_cover(search.candidates, catalog)
        static = search.static
        if static is not None and static.cover == best:
            return static
        return self._cache.get_or_build(
            (_CYCLIC_KIND, fingerprint, best),
            lambda: self._compile_cyclic(hypergraph, fingerprint, best))

    def _cover_search(self, hypergraph: Hypergraph, fingerprint: SchemaFingerprint,
                      *, compile_static: bool) -> "_CoverSearch":
        """The schema's LRU entry, searched on a miss; its static plan compiled if asked.

        A static plan asked for on a miss is compiled inside the entry's
        build, so the entry is stored after the quotient's inner plan: a
        capacity-1 LRU serving one static cyclic workload keeps the entry
        and hits it from then on.
        """
        from .cyclic.covers import enumerate_covers, select_cover

        def with_static(entry: _CoverSearch) -> _CoverSearch:
            if compile_static:
                entry.static_plan(lambda: self._compile_cyclic(
                    hypergraph, fingerprint, select_cover(entry.candidates)))
            return entry

        entry = self._cache.get_or_build(
            (_CYCLIC_KIND, fingerprint),
            lambda: with_static(_CoverSearch(enumerate_covers(hypergraph))))
        return with_static(entry)

    def _compile_cyclic(self, hypergraph: Hypergraph, fingerprint: SchemaFingerprint,
                        cover: "ClusterCover") -> "CyclicExecutionPlan":
        """The plan running ``cover``: its quotient, and the quotient's inner plan from the LRU."""
        from .cyclic.plans import CyclicExecutionPlan
        from .cyclic.quotient import AcyclicQuotient

        quotient = AcyclicQuotient.build(hypergraph, cover)
        return CyclicExecutionPlan(fingerprint=fingerprint, cover=cover,
                                   quotient=quotient,
                                   inner=self.plan_for(quotient.hypergraph))

    def cache_info(self) -> PlanCacheInfo:
        """The plan cache's counts, size and capacity."""
        return self._cache.info()

    def clear(self) -> None:
        """Drop every cached plan (the cache's counts persist)."""
        self._cache.clear()


DEFAULT_PLANNER = QueryPlanner()
"""The shared planner :func:`repro.engine.session.default_session` wraps."""
