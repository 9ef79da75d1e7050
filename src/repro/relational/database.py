"""Databases: a database schema plus one relation instance per schema.

The database is the object the Section 7 story quantifies over: "queries over
a universal relation are answered by joining all the objects in the database
and applying the query to the join".  :class:`Database` keeps the instances,
knows its hypergraph, and provides the whole-database operations (global join,
pairwise consistency, full reduction) that the universal-relation layer and
the benchmarks build on.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Mapping, Sequence, Tuple

from ..core.hypergraph import Hypergraph
from ..core.nodes import sorted_nodes
from ..exceptions import SchemaError
from .algebra import join_all, natural_join, project, semijoin
from .relation import Relation, Row
from .schema import Attribute, DatabaseSchema, RelationSchema

__all__ = ["Database"]


class Database:
    """An immutable database: instances for every relation of a database schema."""

    def __init__(self, schema: DatabaseSchema,
                 relations: Mapping[str, Relation]) -> None:
        self._schema = schema
        instances: Dict[str, Relation] = {}
        for relation_schema in schema:
            try:
                instance = relations[relation_schema.name]
            except KeyError:
                raise SchemaError(f"no instance supplied for relation {relation_schema.name!r}") \
                    from None
            if instance.schema.attribute_set != relation_schema.attribute_set:
                raise SchemaError(
                    f"instance for {relation_schema.name!r} has attributes "
                    f"{sorted_nodes(instance.schema.attribute_set)}, expected "
                    f"{sorted_nodes(relation_schema.attribute_set)}")
            instances[relation_schema.name] = instance
        extra = set(relations) - set(instances)
        if extra:
            raise SchemaError(f"instances supplied for unknown relations {sorted(extra)}")
        self._relations = instances

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(cls, schema: DatabaseSchema,
                  rows: Mapping[str, Iterable[Mapping[Attribute, Any]]]) -> "Database":
        """Build a database from ``{relation name: iterable of attribute→value mappings}``."""
        relations = {}
        for relation_schema in schema:
            relations[relation_schema.name] = Relation(relation_schema,
                                                       rows.get(relation_schema.name, ()))
        return cls(schema, relations)

    @classmethod
    def from_tuples(cls, schema: DatabaseSchema,
                    tuples: Mapping[str, Iterable[Sequence[Any]]]) -> "Database":
        """Build a database from positional tuples per relation."""
        relations = {}
        for relation_schema in schema:
            relations[relation_schema.name] = Relation.from_tuples(
                relation_schema, tuples.get(relation_schema.name, ()))
        return cls(schema, relations)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> DatabaseSchema:
        """The database schema."""
        return self._schema

    @property
    def hypergraph(self) -> Hypergraph:
        """The schema's hypergraph of objects."""
        return self._schema.to_hypergraph()

    def relation(self, name: str) -> Relation:
        """The instance of the relation with the given name."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"no relation named {name!r}") from None

    def __getitem__(self, name: str) -> Relation:
        return self.relation(name)

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations[name] for name in self._schema.relation_names)

    def __len__(self) -> int:
        return len(self._relations)

    def relations(self) -> Tuple[Relation, ...]:
        """All relation instances, in schema order."""
        return tuple(self)

    def total_rows(self) -> int:
        """The total number of tuples across all relations."""
        return sum(len(relation) for relation in self)

    def relations_for_edge(self, edge: Iterable[Attribute]) -> Tuple[Relation, ...]:
        """The instances whose schema's attribute set equals ``edge``."""
        return tuple(self.relation(schema.name)
                     for schema in self._schema.relations_for_edge(edge))

    def with_relation(self, relation: Relation) -> "Database":
        """A database identical to this one except for one replaced instance.

        When this database has already measured its statistics catalog, the
        derived database inherits it *incrementally*: the replaced relation's
        scheme is marked stale and re-measured lazily on the next
        :meth:`statistics_catalog` access, every other edge's statistics
        carry over — so a write burst never silently serves stale statistics,
        never pays a full re-measure, and pays nothing at all on the write
        path itself (chained updates accumulate stale schemes and are
        measured once, at the first read).
        """
        if relation.name not in self._relations:
            raise SchemaError(f"no relation named {relation.name!r} to replace")
        updated = dict(self._relations)
        updated[relation.name] = relation
        derived = Database(self._schema, updated)
        edge = relation.schema.attribute_set
        cached = getattr(self, "_catalog_cache", None)
        pending = getattr(self, "_catalog_pending", None)
        if cached is not None:
            derived._catalog_pending = (cached, frozenset((edge,)))
        elif pending is not None:
            base, stale = pending
            derived._catalog_pending = (base, stale | frozenset((edge,)))
        return derived

    def statistics_catalog(self):
        """The database's exact statistics catalog (cardinalities, distinct counts).

        Built lazily and cached on the instance — the database is immutable,
        so the measurements never go stale.  A database derived through
        :meth:`with_relation` from one whose catalog was already measured
        completes *incrementally* here: only the stale (replaced) schemes are
        re-measured, the rest reuse the parent's measurements.  This is the
        per-database half of adaptive planning: feed it to
        :meth:`QueryPlanner.plan_for
        <repro.engine.planner.QueryPlanner.plan_for>` or the engine
        evaluators' ``catalog`` parameter.
        """
        from ..engine.catalog import StatisticsCatalog

        cached = getattr(self, "_catalog_cache", None)
        if cached is not None:
            return cached
        pending = getattr(self, "_catalog_pending", None)
        if pending is not None:
            catalog, stale = pending
            for edge in stale:
                same_scheme = tuple(instance for instance in self
                                    if instance.schema.attribute_set == edge)
                catalog = catalog.with_edge_remeasured(edge, same_scheme)
        else:
            catalog = StatisticsCatalog.from_relations(self.relations())
        self._catalog_cache = catalog
        self._catalog_pending = None
        return catalog

    # ------------------------------------------------------------------ #
    # Whole-database operations
    # ------------------------------------------------------------------ #
    def universal_join(self) -> Relation:
        """The natural join of *all* the objects — the paper's universal relation instance."""
        return join_all(self.relations(), name="U")

    def is_globally_consistent(self) -> bool:
        """``True`` when every relation equals the projection of the global join onto its scheme.

        Global consistency (also called *join consistency*) means no tuple is
        "dangling": every stored tuple participates in the universal join.
        """
        universe = self.universal_join()
        for relation in self:
            projected = project(universe, relation.attributes)
            stored = project(relation, relation.attributes)
            if frozenset(projected.rows) != frozenset(stored.rows):
                return False
        return True

    def is_pairwise_consistent(self) -> bool:
        """``True`` when every pair of relations is consistent on its shared attributes.

        For *acyclic* schemas pairwise consistency implies global consistency
        (one of the classical "desirable properties" the paper leans on); for
        cyclic schemas it does not, and the benchmark harness exhibits the gap.
        """
        relations = self.relations()
        for i, left in enumerate(relations):
            for right in relations[i + 1:]:
                shared = left.schema.attribute_set & right.schema.attribute_set
                if not shared:
                    continue
                left_proj = frozenset(project(left, sorted_nodes(shared)).rows)
                right_proj = frozenset(project(right, sorted_nodes(shared)).rows)
                if left_proj != right_proj:
                    return False
        return True

    def dangling_tuple_count(self) -> int:
        """How many stored tuples do not participate in the universal join."""
        universe = self.universal_join()
        dangling = 0
        for relation in self:
            participating = frozenset(project(universe, relation.attributes).rows)
            dangling += sum(1 for row in relation.rows if row not in participating)
        return dangling

    def describe(self) -> str:
        """A multi-line summary with per-relation cardinalities."""
        lines = [f"Database over {self._schema.describe().splitlines()[0]}"]
        for relation in self:
            lines.append(f"  {relation.schema}: {len(relation)} rows")
        return "\n".join(lines)

    def __repr__(self) -> str:
        sizes = ", ".join(f"{relation.name}:{len(relation)}" for relation in self)
        return f"Database({sizes})"
