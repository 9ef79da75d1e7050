"""Plan objects, cost/statistics accounting and the LRU plan cache.

Deriving an execution plan for an acyclic schema means running GYO / the
maximum-weight-spanning-tree construction, validating the running-intersection
property, rooting the tree and compiling the full reducer — all of which
depend only on the schema's *hypergraph*, not on the stored tuples.  The
planner therefore caches compiled :class:`ExecutionPlan` objects in an LRU
keyed by a canonical **schema fingerprint**, so repeated queries over the
same hypergraph skip the whole analysis.

Planning is two-phase.  The fingerprint-cached :class:`ExecutionPlan` is the
**structure plan**; handing it a per-database
:class:`~repro.engine.catalog.StatisticsCatalog` (see :meth:`QueryPlanner.annotate`
or the :meth:`QueryPlanner.plan_for` entry point with a
:class:`~repro.relational.database.Database`) yields an :class:`AnnotatedPlan`
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
import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cyclic imports planner)
    from .cyclic.plans import CyclicExecutionPlan

from ..core.hypergraph import Edge, Hypergraph
from ..core.join_tree import JoinTree, RootedJoinTree, build_join_tree
from ..core.nodes import node_sort_key, sorted_nodes
from ..exceptions import CyclicHypergraphError
from ..relational.database import Database
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
    canonical = sorted({tuple(sorted_nodes(edge)) for edge in edges},
                       key=lambda edge: tuple(node_sort_key(node) for node in edge))
    return tuple(canonical)


def fingerprint_digest(fingerprint: SchemaFingerprint) -> str:
    """A short hex digest of a fingerprint, for logs and plan descriptions."""
    return hashlib.sha256(repr(fingerprint).encode("utf-8")).hexdigest()[:12]


def _node_from_json(node: object) -> object:
    """Undo JSON's tuple→list coercion when rebuilding dumped fingerprints.

    Nodes are hashable, so a list in the decoded document can only have been
    a tuple before ``json.dumps``; strings, numbers and booleans round-trip
    unchanged.
    """
    if isinstance(node, list):
        return tuple(_node_from_json(item) for item in node)
    return node


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
    #: ``prepare`` for a cyclic one.  Empty for results
    #: produced before timing existed, so reports must treat it as optional.
    phase_times: Tuple[Tuple[str, float], ...] = ()
    #: The serving planner's LRU hit ratio at the time of the run (stamped by
    #: :class:`~repro.engine.session.EngineSession`; ``None`` outside one).
    planner_hit_ratio: Optional[float] = None

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
        if self.adaptive:
            summary += (f" adaptive est_max={self.estimated_max_intermediate} "
                        f"est_output={self.estimated_output_size}")
        if self.phase_times:
            phases = " ".join(f"{phase}={seconds * 1000:.2f}ms"
                              for phase, seconds in self.phase_times)
            summary += f" wall={self.elapsed_seconds * 1000:.2f}ms ({phases})"
        if self.planner_hit_ratio is not None:
            summary += f" planner_hits={self.planner_hit_ratio:.0%}"
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

    def estimated_semijoin_steps(self) -> int:
        """How many semijoin steps one reducer run performs."""
        return len(self.reducer)

    def describe(self) -> str:
        """A multi-line plan rendering: fingerprint, tree and reducer program."""
        lines = [f"ExecutionPlan {fingerprint_digest(self.fingerprint)} "
                 f"({len(self.vertices)} vertices, {len(self.reducer)} semijoin steps)",
                 self.join_tree.describe(),
                 self.reducer.describe()]
        return "\n".join(lines)


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

    def estimated_semijoin_steps(self) -> int:
        """How many semijoin steps one reducer run performs."""
        return len(self.reducer)

    def order_children(self, vertex: Edge,
                       children: Sequence[Edge]) -> Tuple[Edge, ...]:
        """The annotation's fold order for one vertex's children."""
        return self.annotation.order_children(vertex, children)

    def describe(self) -> str:
        """The structure plan's rendering plus the annotation summary."""
        return "\n".join([self.structure.describe(), self.annotation.describe()])


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
        annotation = annotate_tree(structure.join_tree, catalog,
                                   output_attributes=output_attributes,
                                   candidate_roots=[roots[0] if roots else None])
        reducer = structure.reducer.with_cost_order(annotation.reduced_estimates)
        if span.is_recording:
            span.set("vertices", len(structure.vertices))
            span.set("pinned_root", True)
        return AnnotatedPlan(structure=structure, catalog=catalog,
                             annotation=annotation, reducer=reducer)


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
        # Keys are (fingerprint, root) for acyclic plans and
        # (_CYCLIC_KIND, fingerprint[, cover]) for cyclic ones — one LRU
        # serves both.
        self._cache: LRUCache[object] = LRUCache(capacity)

    @property
    def capacity(self) -> int:
        """The maximum number of cached plans."""
        return self._cache.capacity

    def plan_for(self, hypergraph: Union[Hypergraph, Database], *,
                 root: Optional[Edge] = None,
                 catalog: Optional[StatisticsCatalog] = None,
                 output_attributes: Optional[Iterable[object]] = None
                 ) -> Union[ExecutionPlan, "AnnotatedPlan"]:
        """The execution plan for ``hypergraph`` (compiled or from cache).

        Passing a :class:`~repro.relational.database.Database` (or any
        hypergraph together with a ``catalog``) composes the two planning
        phases and returns an :class:`AnnotatedPlan`: the fingerprint-cached
        structure plan plus a cost annotation computed from the database's
        statistics catalog — the adaptive entry point.  Without a catalog the
        data-independent :class:`ExecutionPlan` is returned as before.

        Raises :class:`CyclicHypergraphError` when the hypergraph admits no
        join tree — cyclic schemas have no full reducer, so the engine cannot
        plan them (callers dispatch to :meth:`cyclic_plan_for` instead).
        """
        if isinstance(hypergraph, Database):
            database = hypergraph
            if catalog is None:
                catalog = database.statistics_catalog()
            hypergraph = database.schema.to_hypergraph()
        if catalog is not None:
            return self.annotate(hypergraph, catalog, root=root,
                                 output_attributes=output_attributes)
        fingerprint = schema_fingerprint(hypergraph)

        def compile_plan() -> ExecutionPlan:
            tree = build_join_tree(hypergraph)
            if tree is None:
                raise CyclicHypergraphError(
                    "the schema's hypergraph is cyclic: no join tree, hence no "
                    "full reducer — use the cyclic subsystem (or the naive plan)")
            reducer = FullReducer.from_join_tree(tree, root)
            return ExecutionPlan(fingerprint=fingerprint, join_tree=tree,
                                 rooted=reducer.rooted, reducer=reducer, root=root)

        return self._cache.get_or_build((fingerprint, root), compile_plan)

    def plan_for_schema(self, schema: DatabaseSchema, *, root: Optional[Edge] = None
                        ) -> ExecutionPlan:
        """The execution plan for a database schema (via its hypergraph)."""
        return self.plan_for(schema.to_hypergraph(), root=root)

    def annotate(self, hypergraph: Hypergraph, catalog: StatisticsCatalog, *,
                 output_attributes: Optional[Iterable[object]] = None,
                 root: Optional[Edge] = None) -> AnnotatedPlan:
        """Compose the cached structure plan with a fresh cost annotation.

        The annotation may pick a different root than the default structure
        plan (it simulates every candidate rooting against the catalog);
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
            structure = base if annotation.root is None \
                else self.plan_for(hypergraph, root=annotation.root)
            reducer = structure.reducer.with_cost_order(annotation.reduced_estimates)
            if span.is_recording:
                span.set("vertices", len(structure.vertices))
                span.set("pinned_root", False)
                span.set("rerooted", annotation.root is not None)
            return AnnotatedPlan(structure=structure, catalog=catalog,
                                 annotation=annotation, reducer=reducer)

    def cyclic_plan_for(self, hypergraph: Hypergraph, *,
                        catalog: Optional[StatisticsCatalog] = None
                        ) -> "CyclicExecutionPlan":
        """The cyclic execution plan for ``hypergraph`` (compiled or from cache).

        Works for acyclic hypergraphs too (the cover is trivially all
        singletons).  The plan — cover, validated acyclic quotient, and the
        quotient's embedded :class:`ExecutionPlan` — is cached in the same
        LRU as the acyclic plans under an extended fingerprint key, so cover
        search runs once per schema.

        With a ``catalog``, the cached plan's candidate covers are re-scored
        by estimated cluster-join cardinality (the data-dependent tie-break
        of :func:`repro.engine.cyclic.covers.cover_score`); when a different
        candidate wins, a per-database plan is assembled around it — its
        quotient's inner plan still comes from the fingerprint cache, and the
        static plan stays cached untouched.
        """
        from .cyclic.covers import enumerate_covers, select_cover
        from .cyclic.plans import CyclicExecutionPlan
        from .cyclic.quotient import AcyclicQuotient

        fingerprint = schema_fingerprint(hypergraph)

        def compile_plan(cover, candidates) -> CyclicExecutionPlan:
            # The quotient's inner plan is a nested lookup in the same LRU.
            quotient = AcyclicQuotient.build(hypergraph, cover)
            return CyclicExecutionPlan(fingerprint=fingerprint, cover=cover,
                                       quotient=quotient,
                                       inner=self.plan_for(quotient.hypergraph),
                                       candidates=candidates)

        def compile_static() -> CyclicExecutionPlan:
            candidates = enumerate_covers(hypergraph)
            return compile_plan(select_cover(candidates), tuple(candidates))

        plan = self._cache.get_or_build((_CYCLIC_KIND, fingerprint), compile_static)
        if catalog is None:
            return plan
        best = select_cover(plan.candidates or (plan.cover,), catalog)
        if best == plan.cover:
            return plan
        # The adaptive variant is keyed by the *chosen cover*, not by the
        # catalog: any catalog picking the same cover gets the same plan, so
        # repeated adaptive queries over one schema build the quotient once.
        return self._cache.get_or_build(
            (_CYCLIC_KIND, fingerprint, best),
            lambda: compile_plan(best, plan.candidates))

    def dump_fingerprints(self) -> str:
        """The cached plans' fingerprints as a JSON document (LRU → MRU order).

        The dump carries no compiled plans — plans are data-independent and
        cheap to rebuild relative to a service's lifetime — only what is
        needed to re-plan: each entry's kind (``acyclic``/``cyclic``), its
        edge lists and, for acyclic plans, the requested root.  Feed the
        document to :meth:`warm_up` after a restart to pre-compile the whole
        workload.  Nodes must be JSON-serialisable (strings, numbers,
        booleans, or tuples of those — tuples are restored on the way back
        in); exotic node types raise ``TypeError`` here rather than
        producing a dump that cannot round-trip.
        """
        entries: List[Dict[str, object]] = []
        for key in self._cache.keys():
            if key[0] == _CYCLIC_KIND:
                if len(key) == 3:
                    # Catalog-chosen cover variants are derived per database;
                    # warming the base cyclic entry is enough to rebuild them.
                    continue
                kind, fingerprint, root = _CYCLIC_KIND, key[1], None
            else:
                kind = "acyclic"
                fingerprint, root = key
            entries.append({
                "kind": kind,
                "edges": [list(edge) for edge in fingerprint],
                "root": sorted_nodes(root) if root is not None else None,
            })
        return json.dumps(entries)

    def warm_up(self, source: Union[str, Iterable[object]]) -> int:
        """Pre-compile plans for a known workload; return how many were newly compiled.

        ``source`` is a JSON document from :meth:`dump_fingerprints` (or its
        parsed entry list), or any iterable mixing such entries with
        :class:`Hypergraph` / :class:`DatabaseSchema` objects.  Entries
        already cached are refreshed, not recompiled, so warm-up is
        idempotent.  The count includes the quotient plans cyclic entries
        compile internally; a planner whose ``capacity`` is smaller than the
        workload evicts the earliest warmed plans again, so size the planner
        to the dump before warming.
        """
        from ..core.acyclicity import is_acyclic

        if isinstance(source, str):
            entries: Iterable[object] = json.loads(source)
        else:
            entries = source
        misses_before = self._cache.info().misses
        for entry in entries:
            if isinstance(entry, DatabaseSchema):
                entry = entry.to_hypergraph()
            if isinstance(entry, Hypergraph):
                if is_acyclic(entry):
                    self.plan_for(entry)
                else:
                    self.cyclic_plan_for(entry)
                continue
            if not isinstance(entry, dict):
                raise ValueError(f"cannot warm up from entry {entry!r}; expected a "
                                 "dump_fingerprints entry, Hypergraph or DatabaseSchema")
            hypergraph = Hypergraph(
                frozenset(_node_from_json(node) for node in edge)
                for edge in entry["edges"])
            if entry.get("kind") == _CYCLIC_KIND:
                self.cyclic_plan_for(hypergraph)
            else:
                root = entry.get("root")
                self.plan_for(
                    hypergraph,
                    root=frozenset(_node_from_json(node) for node in root)
                    if root is not None else None)
        return self._cache.info().misses - misses_before

    def save_cache(self, path: Union[str, "os.PathLike[str]"]) -> int:
        """Persist :meth:`dump_fingerprints` to a JSON file; return the entry count.

        The write goes through a same-directory temp file and ``os.replace``,
        so a service crashing mid-save never truncates the previous dump.
        """
        document = self.dump_fingerprints()
        count = len(json.loads(document))
        path = os.fspath(path)
        temp_path = f"{path}.tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            handle.write(document)
        os.replace(temp_path, path)
        return count

    def load_cache(self, path: Union[str, "os.PathLike[str]"], *,
                   missing_ok: bool = False) -> int:
        """Warm the planner from a :meth:`save_cache` file; return plans compiled.

        Loading on service start makes every known workload schema a plan
        cache hit from the first query — zero re-planning on warm start.
        ``missing_ok=True`` turns a missing file into a no-op (first boot).
        """
        path = os.fspath(path)
        if missing_ok and not os.path.exists(path):
            return 0
        with open(path, "r", encoding="utf-8") as handle:
            document = handle.read()
        return self.warm_up(document)

    def cache_info(self) -> PlanCacheInfo:
        """Current hit/miss/size counters."""
        return self._cache.info()

    def clear(self) -> None:
        """Drop every cached plan and reset the counters."""
        self._cache.clear()


DEFAULT_PLANNER = QueryPlanner()
"""The shared planner :func:`repro.engine.session.default_session` wraps."""
