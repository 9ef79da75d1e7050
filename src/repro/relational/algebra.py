"""Relational-algebra operators over :class:`~repro.relational.relation.Relation`.

Only the operators the paper's Section 7 story needs are provided — natural
join, projection, selection, semijoin, rename, union, difference, intersection
— plus a hash-based join implementation so that the benchmark harness can
compare naive and acyclic (Yannakakis) join plans on non-trivial data sizes.

All operators are pure functions returning new relations.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.nodes import sorted_nodes
from ..exceptions import SchemaError, UnknownAttributeError
from .relation import Relation, Row
from .schema import Attribute, RelationSchema

__all__ = [
    "project",
    "select",
    "rename_relation",
    "natural_join",
    "join_all",
    "semijoin",
    "antijoin",
    "union",
    "difference",
    "intersection",
    "cartesian_product",
]


def project(relation: Relation, attributes: Iterable[Attribute],
            *, name: Optional[str] = None) -> Relation:
    """``π_attributes(relation)`` — duplicate-eliminating projection."""
    wanted = list(dict.fromkeys(attributes))
    unknown = [a for a in wanted if not relation.schema.has_attribute(a)]
    if unknown:
        raise UnknownAttributeError(unknown[0])
    schema = RelationSchema.of(name or f"π({relation.name})", wanted)
    rows = [row.project(wanted) for row in relation.rows]
    return Relation(schema, rows)


def select(relation: Relation, predicate: Callable[[Row], bool],
           *, name: Optional[str] = None) -> Relation:
    """``σ_predicate(relation)`` — keep the rows satisfying ``predicate``."""
    schema = relation.schema if name is None else relation.schema.rename(name)
    return Relation(schema, [row for row in relation.rows if predicate(row)])


def rename_relation(relation: Relation, new_name: str,
                    attribute_mapping: Optional[Mapping[Attribute, Attribute]] = None) -> Relation:
    """Rename the relation and, optionally, some of its attributes."""
    mapping = dict(attribute_mapping or {})
    new_attributes = [mapping.get(attribute, attribute) for attribute in relation.attributes]
    if len(set(new_attributes)) != len(new_attributes):
        raise SchemaError("attribute renaming must keep attribute names distinct")
    schema = RelationSchema.of(new_name, new_attributes)
    rows = [{mapping.get(attribute, attribute): value for attribute, value in row.items()}
            for row in relation.rows]
    return Relation(schema, rows)


def _separator(left: Relation, right: Relation) -> Tuple[Attribute, ...]:
    """The attributes common to both schemas, in canonical order."""
    return tuple(sorted_nodes(left.schema.attribute_set & right.schema.attribute_set))


def _key(row: Row, separator: Tuple[Attribute, ...]) -> Tuple[Any, ...]:
    """A row's values on the separator: what the hash operators match on."""
    return tuple(row[attribute] for attribute in separator)


def natural_join(left: Relation, right: Relation, *, name: Optional[str] = None) -> Relation:
    """``left ⋈ right`` — natural join on the shared attributes (hash join).

    The smaller side is bucketed by its separator values in one dict, built
    for this call only; every row of the other side is merged with the
    rows of its bucket.  With no shared attributes every row falls into
    the one empty-key bucket, so the join is the Cartesian product, as
    usual for the natural join.
    """
    separator = _separator(left, right)
    attributes = list(left.attributes) + [
        attribute for attribute in right.attributes
        if attribute not in left.schema.attribute_set]
    schema = RelationSchema.of(name or f"({left.name} ⋈ {right.name})", attributes)
    build, probe = (left, right) if len(left) <= len(right) else (right, left)
    buckets: Dict[Tuple[Any, ...], List[Row]] = {}
    for row in build.rows:
        buckets.setdefault(_key(row, separator), []).append(row)
    rows = [row.merge(partner) for row in probe.rows
            for partner in buckets.get(_key(row, separator), ())]
    return Relation.from_valid_rows(schema, rows)


def join_all(relations: Sequence[Relation], *, name: Optional[str] = None) -> Relation:
    """The natural join of all the given relations, left to right.

    This is the "join all the objects" operation of the universal-relation
    interpretation; the paper's point is that for acyclic schemas only the
    objects in the canonical connection need to participate.
    """
    if not relations:
        raise SchemaError("join_all needs at least one relation")
    result = relations[0]
    for relation in relations[1:]:
        result = natural_join(result, relation)
    if name is not None:
        result = rename_relation(result, name)
    return result


def _filter_by_partners(left: Relation, right: Relation, keep_matched: bool,
                        name: Optional[str]) -> Relation:
    """The rows of ``left`` whose separator values do (or do not) occur in ``right``."""
    separator = _separator(left, right)
    keys = {_key(row, separator) for row in right.rows}
    schema = left.schema if name is None else left.schema.rename(name)
    return Relation.from_valid_rows(
        schema, [row for row in left.rows
                 if (_key(row, separator) in keys) == keep_matched])


def semijoin(left: Relation, right: Relation, *, name: Optional[str] = None) -> Relation:
    """``left ⋉ right`` — the rows of ``left`` that join with at least one row of ``right``.

    With no shared attributes every row has the empty key, so ``left`` is
    kept whole iff ``right`` is non-empty.
    """
    return _filter_by_partners(left, right, True, name)


def antijoin(left: Relation, right: Relation, *, name: Optional[str] = None) -> Relation:
    """``left ▷ right`` — the rows of ``left`` that join with *no* row of ``right``."""
    return _filter_by_partners(left, right, False, name)


def _require_same_scheme(left: Relation, right: Relation, operation: str) -> None:
    if left.schema.attribute_set != right.schema.attribute_set:
        raise SchemaError(
            f"{operation} requires identical attribute sets; got "
            f"{sorted_nodes(left.schema.attribute_set)} and "
            f"{sorted_nodes(right.schema.attribute_set)}")


def union(left: Relation, right: Relation, *, name: Optional[str] = None) -> Relation:
    """Set union of two relations over the same attribute set."""
    _require_same_scheme(left, right, "union")
    schema = left.schema if name is None else left.schema.rename(name)
    return Relation(schema, list(left.rows) + [dict(row) for row in right.rows])


def difference(left: Relation, right: Relation, *, name: Optional[str] = None) -> Relation:
    """Set difference ``left − right`` over the same attribute set."""
    _require_same_scheme(left, right, "difference")
    schema = left.schema if name is None else left.schema.rename(name)
    right_rows = {Row({a: row[a] for a in left.attributes}) for row in right.rows}
    return Relation(schema, [row for row in left.rows if row not in right_rows])


def intersection(left: Relation, right: Relation, *, name: Optional[str] = None) -> Relation:
    """Set intersection of two relations over the same attribute set."""
    _require_same_scheme(left, right, "intersection")
    schema = left.schema if name is None else left.schema.rename(name)
    right_rows = {Row({a: row[a] for a in left.attributes}) for row in right.rows}
    return Relation(schema, [row for row in left.rows if row in right_rows])


def cartesian_product(left: Relation, right: Relation, *, name: Optional[str] = None) -> Relation:
    """The Cartesian product (disjoint attribute sets required)."""
    if left.schema.attribute_set & right.schema.attribute_set:
        raise SchemaError("cartesian_product requires disjoint attribute sets; "
                          "use natural_join for overlapping schemes")
    return natural_join(left, right, name=name)
