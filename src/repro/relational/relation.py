"""Relations: sets of tuples over a relation schema.

A :class:`Relation` is an immutable set of :class:`Row` objects, each mapping
every attribute of the relation's schema to a value.  Rows are hashable so
relations behave like mathematical relations (no duplicates, no order); all
relational-algebra operators live in :mod:`repro.relational.algebra`.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.nodes import sorted_nodes
from ..exceptions import ArityError, SchemaError, UnknownAttributeError
from .schema import Attribute, RelationSchema

__all__ = ["Row", "Relation"]


class Row(Mapping[Attribute, Any]):
    """An immutable tuple of a relation, viewed as a mapping attribute → value."""

    __slots__ = ("_items", "_mapping", "_hash")

    def __init__(self, values: Mapping[Attribute, Any]) -> None:
        self._items: Tuple[Tuple[Attribute, Any], ...] = tuple(
            sorted(values.items(), key=lambda item: sorted_nodes([item[0]])))
        self._mapping: Optional[Dict[Attribute, Any]] = None
        self._hash: Optional[int] = None

    @classmethod
    def _from_sorted_items(cls, items: Tuple[Tuple[Attribute, Any], ...]) -> "Row":
        """Wrap an already-canonically-sorted items tuple without re-sorting.

        The columnar decode boundary builds rows in bulk from columns it has
        already arranged in canonical attribute order; going through
        ``__init__`` would re-sort (and re-dict) every row.  The caller is
        responsible for the sort order — equality/hash semantics depend on it.
        """
        row = cls.__new__(cls)
        row._items = items
        row._mapping = None
        row._hash = None
        return row

    # Mapping interface ------------------------------------------------- #
    def __getitem__(self, attribute: Attribute) -> Any:
        # Attribute lookup is the hottest operation under joins and
        # semijoins; the dict gives O(1) access while _items keeps the
        # sorted-tuple hash/eq semantics.  Built lazily so rows that are
        # only stored (never probed) don't pay the duplicate storage.
        mapping = self._mapping
        if mapping is None:
            mapping = self._mapping = dict(self._items)
        return mapping[attribute]

    def __iter__(self) -> Iterator[Attribute]:
        return iter(key for key, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    # Value semantics ---------------------------------------------------- #
    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._items)
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self._items == other._items
        if isinstance(other, Mapping):
            # Reuse (and keep) the lazily built lookup dict instead of
            # allocating a fresh dict for the left side on every comparison.
            mapping = self._mapping
            if mapping is None:
                mapping = self._mapping = dict(self._items)
            return mapping == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{key}={value!r}" for key, value in self._items)
        return f"Row({inner})"

    # Convenience -------------------------------------------------------- #
    def project(self, attributes: Iterable[Attribute]) -> "Row":
        """The row restricted to ``attributes`` (which must all be present)."""
        wanted = list(attributes)
        missing = [attribute for attribute in wanted if attribute not in self]
        if missing:
            raise UnknownAttributeError(missing[0])
        return Row({attribute: self[attribute] for attribute in wanted})

    def merge(self, other: "Row") -> Optional["Row"]:
        """Combine two rows into one, or ``None`` if they disagree on a shared attribute.

        This is the tuple-level operation underlying the natural join.
        """
        combined: Dict[Attribute, Any] = dict(self._items)
        for attribute, value in other.items():
            if attribute in combined and combined[attribute] != value:
                return None
            combined[attribute] = value
        return Row(combined)

    def agrees_with(self, other: "Row", attributes: Iterable[Attribute]) -> bool:
        """``True`` when both rows have the same value on every listed attribute."""
        return all(self.get(attribute) == other.get(attribute) for attribute in attributes)


class Relation:
    """An immutable relation: a schema plus a set of rows conforming to it."""

    __slots__ = ("_schema", "_rows", "__weakref__")

    def __init__(self, schema: RelationSchema, rows: Iterable[Mapping[Attribute, Any]] = ()) -> None:
        self._schema = schema
        normalised = []
        expected = schema.attribute_set
        for raw in rows:
            row = raw if isinstance(raw, Row) else Row(dict(raw))
            if frozenset(row.keys()) != expected:
                raise ArityError(
                    f"row {dict(row)!r} does not match schema {schema}: expected attributes "
                    f"{sorted_nodes(expected)}")
            normalised.append(row)
        self._rows: FrozenSet[Row] = frozenset(normalised)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_tuples(cls, schema: RelationSchema,
                    tuples: Iterable[Sequence[Any]]) -> "Relation":
        """Build a relation from positional tuples following the schema's attribute order."""
        rows = []
        for values in tuples:
            values = tuple(values)
            if len(values) != schema.arity:
                raise ArityError(
                    f"tuple {values!r} has arity {len(values)}, schema {schema} expects {schema.arity}")
            rows.append(dict(zip(schema.attributes, values)))
        return cls(schema, rows)

    @classmethod
    def empty(cls, schema: RelationSchema) -> "Relation":
        """The empty relation over ``schema``."""
        return cls(schema, ())

    @classmethod
    def from_valid_rows(cls, schema: RelationSchema, rows: Iterable["Row"]) -> "Relation":
        """Build a relation from rows already known to conform to ``schema``.

        This skips the per-row schema validation of ``__init__`` and is the
        constructor the execution engine uses on its hot paths, where every
        row is either taken unchanged from an input relation or produced by
        :meth:`Row.merge` / :meth:`Row.project` against the target schema.
        """
        relation = cls.__new__(cls)
        relation._schema = schema
        relation._rows = rows if isinstance(rows, frozenset) else frozenset(rows)
        return relation

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> RelationSchema:
        """The relation's schema."""
        return self._schema

    @property
    def name(self) -> str:
        """The relation's name (from its schema)."""
        return self._schema.name

    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        """The schema's attributes, in order."""
        return self._schema.attributes

    @property
    def rows(self) -> FrozenSet[Row]:
        """The set of rows."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(sorted(self._rows, key=lambda row: tuple(repr(row[a]) for a in self.attributes)))

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Row):
            return item in self._rows
        if isinstance(item, Mapping):
            return Row(dict(item)) in self._rows
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema.attribute_set == other._schema.attribute_set and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._schema.attribute_set, self._rows))

    def __repr__(self) -> str:
        return f"Relation({self._schema}, {len(self._rows)} rows)"

    # ------------------------------------------------------------------ #
    # Simple derived relations (set-level operators live in algebra.py)
    # ------------------------------------------------------------------ #
    def with_rows(self, rows: Iterable[Mapping[Attribute, Any]]) -> "Relation":
        """A relation over the same schema with exactly the given rows."""
        return Relation(self._schema, rows)

    def add_rows(self, rows: Iterable[Mapping[Attribute, Any]]) -> "Relation":
        """A relation over the same schema with the given rows added."""
        return Relation(self._schema, list(self._rows) + [dict(row) for row in rows])

    def values_of(self, attribute: Attribute) -> FrozenSet[Any]:
        """The active domain of one attribute within this relation."""
        if not self._schema.has_attribute(attribute):
            raise UnknownAttributeError(attribute)
        return frozenset(row[attribute] for row in self._rows)

    def to_columns(self) -> Tuple[Tuple[Row, ...], Dict[Attribute, List[Any]]]:
        """The rows in one fixed order plus every attribute's values in that order.

        The transpose the columnar encode boundary starts from, and the
        mirror of :meth:`Row._from_sorted_items` on the decode side: one walk
        over the row set and no per-cell attribute lookup.  Every row of a
        relation holds its items in the same canonical attribute order (the
        invariant ``Row.__eq__`` and ``Row.__hash__`` already rest on), so
        slot ``k`` of every items tuple belongs to one attribute and a column
        is a plain slice — ``columns[a][i] == rows[i][a]`` for every
        position ``i``.
        """
        rows = tuple(self._rows)
        if not rows:
            return rows, {attribute: [] for attribute in self._schema.attributes}
        items = [row._items for row in rows]
        return rows, {attribute: [cells[slot][1] for cells in items]
                      for slot, (attribute, _) in enumerate(items[0])}

    def is_empty(self) -> bool:
        """``True`` when the relation has no rows."""
        return not self._rows

    def to_table(self, *, limit: Optional[int] = None) -> str:
        """A plain-text rendering (header + rows), used by the examples."""
        header = " | ".join(str(attribute) for attribute in self.attributes)
        rule = "-" * len(header)
        lines = [f"{self.name}", header, rule]
        for index, row in enumerate(self):
            if limit is not None and index >= limit:
                lines.append(f"... ({len(self) - limit} more rows)")
                break
            lines.append(" | ".join(str(row[attribute]) for attribute in self.attributes))
        if self.is_empty():
            lines.append("(empty)")
        return "\n".join(lines)
