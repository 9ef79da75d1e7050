"""Relations: sets of tuples over a relation schema.

A :class:`Relation` is an immutable set of :class:`Row` objects, each mapping
every attribute of the relation's schema to a value.  Rows are hashable so
relations behave like mathematical relations (no duplicates, no order); all
relational-algebra operators live in :mod:`repro.relational.algebra`.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.nodes import sorted_nodes
from ..exceptions import ArityError, SchemaError, UnknownAttributeError
from .schema import Attribute, RelationSchema

__all__ = ["Row", "Relation"]


class _RowSchema:
    """The layout every row over one attribute *set* shares.

    ``attributes`` is the set in canonical (:func:`sorted_nodes`) order and
    ``index`` maps each attribute to its slot in that order.  Schemas are
    interned by attribute set (:meth:`of`), so in practice all rows over one
    set point at one object and ``Row.__eq__`` decides "same attributes" by
    identity; an equal duplicate (hand-built, or raced into existence) is
    still correct — it costs one tuple comparison.
    """

    __slots__ = ("attributes", "index")

    _interned: Dict[FrozenSet[Attribute], "_RowSchema"] = {}

    def __init__(self, attributes: Tuple[Attribute, ...]) -> None:
        self.attributes = attributes
        self.index: Dict[Attribute, int] = {
            attribute: slot for slot, attribute in enumerate(attributes)}

    @classmethod
    def of(cls, attributes: Iterable[Attribute]) -> "_RowSchema":
        """The interned schema over ``attributes`` (any order, any iterable)."""
        key = frozenset(attributes)
        schema = cls._interned.get(key)
        if schema is None:
            # ``setdefault`` is one atomic dict operation: of two threads
            # racing on a never-seen set, both leave with the same schema.
            schema = cls._interned.setdefault(key, cls(sorted_nodes(key)))
        return schema


class Row(Mapping[Attribute, Any]):
    """An immutable tuple of a relation, viewed as a mapping attribute → value.

    Stored as ``(_schema, _values, _hash)``: the shared :class:`_RowSchema` of
    the row's attribute set, the cells as a plain tuple in the schema's
    canonical order, and the lazily cached hash of that tuple.  A row is thus
    two allocations — itself and its values tuple, which the collector stops
    tracking once it has seen that it holds only atoms — and carries no
    per-row attribute names and no per-row ``dict``.
    """

    __slots__ = ("_schema", "_values", "_hash")

    def __init__(self, values: Mapping[Attribute, Any]) -> None:
        schema = self._schema = _RowSchema.of(values)
        self._values: Tuple[Any, ...] = tuple(
            map(values.__getitem__, schema.attributes))
        self._hash: Optional[int] = None

    @classmethod
    def _from_values(cls, schema: _RowSchema, values: Tuple[Any, ...]) -> "Row":
        """Wrap a values tuple already arranged in ``schema.attributes`` order.

        The columnar decode boundary builds rows in bulk from columns it has
        gathered in canonical order; going through ``__init__`` would look
        the schema up and re-gather every row.  The caller is responsible for
        the order and the arity — equality/hash semantics depend on both.
        """
        row = cls.__new__(cls)
        row._schema = schema
        row._values = values
        row._hash = None
        return row

    def __reduce__(self):
        """Pickle as ``(attributes, values)``; the schema is re-interned on load.

        Every row over one attribute set ships the *same* attributes tuple,
        which pickle memoises: a payload of many rows spells the attribute
        names once, not once per cell.
        """
        return _rebuild_row, (self._schema.attributes, self._values)

    # Mapping interface ------------------------------------------------- #
    def __getitem__(self, attribute: Attribute) -> Any:
        # Attribute lookup is the hottest operation under joins and
        # semijoins: one probe of the shared slot index, one tuple read.
        return self._values[self._schema.index[attribute]]

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._schema.attributes)

    def __len__(self) -> int:
        return len(self._values)

    # Value semantics ---------------------------------------------------- #
    def __hash__(self) -> int:
        # Over the values alone: rows over different attribute sets may
        # collide, which ``__eq__`` resolves; rows of one relation never mix.
        if self._hash is None:
            self._hash = hash(self._values)
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            schema, theirs = self._schema, other._schema
            return (schema is theirs or schema.attributes == theirs.attributes) \
                and self._values == other._values
        if isinstance(other, Mapping):
            return dict(zip(self._schema.attributes, self._values)) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{key}={value!r}" for key, value
                          in zip(self._schema.attributes, self._values))
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
        combined: Dict[Attribute, Any] = dict(
            zip(self._schema.attributes, self._values))
        for attribute, value in other.items():
            if attribute in combined and combined[attribute] != value:
                return None
            combined[attribute] = value
        return Row(combined)

    def agrees_with(self, other: "Row", attributes: Iterable[Attribute]) -> bool:
        """``True`` when both rows have the same value on every listed attribute."""
        return all(self.get(attribute) == other.get(attribute) for attribute in attributes)


def _rebuild_row(attributes: Tuple[Attribute, ...], values: Tuple[Any, ...]) -> Row:
    """Unpickle a row under *this* process' schema intern table."""
    schema = _RowSchema.of(attributes)
    if schema.attributes == attributes:
        return Row._from_values(schema, values)
    # The sender's canonical order is not ours (a node whose ``repr`` is not
    # stable across processes): rebuild through the sorting constructor.
    return Row(dict(zip(attributes, values)))


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
        mirror of :meth:`Row._from_values` on the decode side: one walk over
        the row set and no per-cell attribute lookup.  Every row of a
        relation holds its values in the same canonical attribute order (the
        invariant ``Row.__eq__`` and ``Row.__hash__`` already rest on), so
        slot ``k`` of every values tuple belongs to one attribute and a
        column is a plain slice — ``columns[a][i] == rows[i][a]`` for every
        position ``i``.

        Sliced per *slot* — one C-level ``map(itemgetter(slot), …)`` per
        attribute — and deliberately not ``zip(*values)``: star-zipping N
        tuples allocates one collector-tracked tuple iterator per *row*,
        which on an 18 000-row database multiplies the young collections
        sevenfold; this form allocates nothing per row.
        """
        rows = tuple(self._rows)
        if not rows:
            return rows, {attribute: [] for attribute in self._schema.attributes}
        values = list(map(attrgetter("_values"), rows))
        return rows, {attribute: list(map(itemgetter(slot), values))
                      for slot, attribute in enumerate(rows[0]._schema.attributes)}

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
