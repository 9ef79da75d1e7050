"""Maximal objects — the paper's pointer for the cyclic case (Section 7, ref. [8]).

The conclusion of the paper warns that the straightforward universal-relation
implementation "will not work when the underlying structure is cyclic: then
some additional semantics, such as proposed in [8], must be applied".  The
semantics of reference [8] (Maier & Ullman, *Maximal objects and the semantics
of universal relation databases*) interprets a cyclic set of objects through
its **maximal objects**: maximal sets of objects (edges) that form a connected,
acyclic sub-hypergraph.  A query over attributes ``X`` is answered inside each
maximal object whose attribute set covers ``X`` — where the canonical
connection is uniquely defined again, because each maximal object is acyclic —
and the answers are unioned.

This module implements that extension on top of the reproduction's core:

* :func:`enumerate_maximal_objects` — the maximal connected acyclic edge
  subsets of a hypergraph (for an acyclic, connected hypergraph there is
  exactly one: the whole edge set);
* :class:`MaximalObjectInterface` — universal-relation window queries under
  the maximal-object semantics, usable on cyclic schemas where
  :class:`~repro.relational.universal.UniversalRelationInterface` only warns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..core.acyclicity import is_acyclic
from ..core.canonical import canonical_connection_result
from ..core.hypergraph import Edge, Hypergraph
from ..core.nodes import edge_sort_key, format_node_set, sorted_nodes
from ..exceptions import QueryError
from .algebra import union
from .database import Database
from .relation import Relation
from .schema import Attribute, RelationSchema

__all__ = ["MaximalObject", "enumerate_maximal_objects", "MaximalObjectInterface"]


@dataclass(frozen=True)
class MaximalObject:
    """One maximal object: a maximal connected acyclic set of edges of the schema hypergraph."""

    edges: FrozenSet[Edge]

    @property
    def attributes(self) -> FrozenSet[Attribute]:
        """The union of the object's edges (the attributes it can answer queries about)."""
        return frozenset().union(*self.edges) if self.edges else frozenset()

    def hypergraph(self) -> Hypergraph:
        """The maximal object as a hypergraph of its own."""
        return Hypergraph(self.edges, name="maximal object")

    def covers(self, attributes: Iterable[Attribute]) -> bool:
        """``True`` when every query attribute appears in the object."""
        return frozenset(attributes) <= self.attributes

    def describe(self) -> str:
        """A one-line rendering listing the object's edges."""
        rendered = ", ".join(format_node_set(edge) for edge in
                             sorted(self.edges, key=edge_sort_key))
        return f"maximal object {{{rendered}}}"


#: Exhaustive subset enumeration is used, so cap the edge count it accepts.
_MAXIMAL_OBJECT_EDGE_LIMIT = 16


def enumerate_maximal_objects(hypergraph: Hypergraph,
                              *, edge_limit: int = _MAXIMAL_OBJECT_EDGE_LIMIT
                              ) -> Tuple[MaximalObject, ...]:
    """Enumerate the maximal connected acyclic edge subsets of ``hypergraph``.

    Because α-acyclicity is not monotone under adding edges, greedy growth can
    miss maximal objects; the enumeration therefore examines every edge subset
    (database schemas have few objects) and keeps the inclusion-maximal ones
    that are connected and acyclic.  Hypergraphs with more than ``edge_limit``
    edges are rejected with :class:`ValueError` rather than silently truncated.

    For an acyclic connected hypergraph the result is a single maximal object
    containing every edge.
    """
    edges = list(hypergraph.edges)
    if len(edges) > edge_limit:
        raise ValueError(
            f"maximal-object enumeration is exhaustive and limited to {edge_limit} edges "
            f"(got {len(edges)})")
    acceptable: List[FrozenSet[Edge]] = []
    for mask in range(1, 1 << len(edges)):
        subset = tuple(edge for index, edge in enumerate(edges) if mask & (1 << index))
        candidate = Hypergraph(subset)
        if not candidate.is_connected():
            continue
        if not is_acyclic(candidate):
            continue
        acceptable.append(frozenset(subset))
    result: List[MaximalObject] = []
    for candidate in acceptable:
        if not any(candidate < other for other in acceptable):
            result.append(MaximalObject(edges=candidate))
    result.sort(key=lambda obj: (-len(obj.edges),
                                 sorted(map(edge_sort_key, obj.edges))))
    return tuple(result)


class MaximalObjectInterface:
    """Universal-relation query answering under the maximal-object semantics.

    Works for both acyclic and cyclic schemas.  On acyclic schemas there is a
    single maximal object (the whole schema) and the semantics coincides with
    :class:`~repro.relational.universal.UniversalRelationInterface`; on cyclic
    schemas each maximal object is acyclic, so inside each one the canonical
    connection is uniquely defined, and the window is the union of the
    per-object answers.
    """

    def __init__(self, database: Database, *, session=None) -> None:
        self._database = database
        self._hypergraph = database.hypergraph
        self._objects = enumerate_maximal_objects(self._hypergraph)
        # Per-object window queries route through an engine session (the
        # process-wide default unless one is injected), so repeated windows
        # over the same connections reuse prepared dispatch and plans.
        self._session = session

    def _engine_session(self):
        if self._session is None:
            from ..engine.session import default_session

            self._session = default_session()
        return self._session

    @property
    def database(self) -> Database:
        """The underlying database."""
        return self._database

    @property
    def maximal_objects(self) -> Tuple[MaximalObject, ...]:
        """All maximal objects of the schema hypergraph."""
        return self._objects

    def objects_covering(self, attributes: Iterable[Attribute]) -> Tuple[MaximalObject, ...]:
        """The maximal objects whose attribute set covers all the query attributes."""
        attribute_set = frozenset(attributes)
        return tuple(obj for obj in self._objects if obj.covers(attribute_set))

    def _relations_for(self, edges: Iterable[Edge]) -> List[Relation]:
        relations: List[Relation] = []
        seen: set = set()
        for edge in edges:
            for relation in self._database.relations_for_edge(edge):
                if relation.name not in seen:
                    seen.add(relation.name)
                    relations.append(relation)
        return relations

    def window(self, attributes: Sequence[Attribute]) -> Relation:
        """The maximal-object window: the union over covering maximal objects of
        the join of the objects in that maximal object's canonical connection,
        projected onto the query attributes.

        Every per-object query is routed through the engine
        (:mod:`repro.engine.cyclic`, whose cover degenerates to the plain
        full reducer for acyclic connections): full reduction along a join
        tree, then a bottom-up join projecting early onto the query
        attributes, instead of the naive join of the connection.  Answers
        are identical to the naive join either way.

        Raises :class:`QueryError` when no maximal object covers the query
        attributes (the attributes are not "meaningfully connected" under this
        semantics).
        """
        ordered = list(dict.fromkeys(attributes))
        unknown = frozenset(ordered) - self._database.schema.attributes
        if unknown:
            raise QueryError(f"query attributes {sorted_nodes(unknown)} are not in the schema")
        covering = self.objects_covering(ordered)
        if not covering:
            raise QueryError(
                f"no maximal object covers the attributes {ordered}; under the "
                "maximal-object semantics this query has no meaningful connection")
        window_name = f"[{', '.join(str(a) for a in ordered)}]"
        answer: Optional[Relation] = None
        for maximal_object in covering:
            connection = canonical_connection_result(maximal_object.hypergraph(), ordered)
            relations = self._relations_for(connection.objects)
            if not relations:
                continue
            projected = self._evaluate_connection(relations, ordered, window_name)
            if projected is None:
                continue
            answer = projected if answer is None else union(answer, projected)
        if answer is None:
            schema = RelationSchema.of(window_name, ordered)
            return Relation(schema, ())
        return answer

    def _evaluate_connection(self, relations: List[Relation],
                             ordered: List[Attribute],
                             window_name: str) -> Optional[Relation]:
        """Join one canonical connection and project it onto the query attributes.

        The connection is evaluated through the engine session's unified
        entry point (:meth:`~repro.engine.session.EngineSession.execute_join`):
        the session resolves the dispatch itself — acyclic connections go
        through the full reducer plus the early-projecting bottom-up join,
        and connections that became cyclic (dropping a maximal object's
        edges can reintroduce a cycle) get the cluster treatment instead of
        a naive cross-product join.  Returns ``None`` when the connection
        does not span every query attribute.
        """
        scope = frozenset().union(*(r.schema.attribute_set for r in relations))
        if not frozenset(ordered) <= scope:
            return None
        result = self._engine_session().execute_join(relations, ordered,
                                                     name=window_name,
                                                     adaptive=False)
        return Relation.from_valid_rows(
            RelationSchema.of(window_name, ordered), result.relation.rows)

    def describe(self) -> str:
        """A multi-line report listing the maximal objects."""
        lines = [f"Maximal objects of {self._hypergraph}"]
        for maximal_object in self._objects:
            lines.append(f"  {maximal_object.describe()}")
        return "\n".join(lines)
