"""Unit tests for rows and relations."""

from __future__ import annotations

import gc
import platform

import pytest

from repro.exceptions import ArityError, UnknownAttributeError
from repro.relational import Relation, RelationSchema, Row


@pytest.fixture
def schema():
    return RelationSchema.of("R", ["A", "B"])


@pytest.fixture
def relation(schema):
    return Relation.from_tuples(schema, [(1, "x"), (2, "y"), (2, "z")])


class TestRow:
    def test_mapping_interface(self):
        row = Row({"A": 1, "B": 2})
        assert row["A"] == 1
        assert set(row) == {"A", "B"}
        assert len(row) == 2
        with pytest.raises(KeyError):
            _ = row["Z"]

    def test_equality_and_hash(self):
        assert Row({"A": 1, "B": 2}) == Row({"B": 2, "A": 1})
        assert hash(Row({"A": 1})) == hash(Row({"A": 1}))
        assert Row({"A": 1}) == {"A": 1}

    def test_mapping_equality_reuses_the_lookup_dict(self):
        row = Row({"A": 1, "B": 2})
        assert row == {"A": 1, "B": 2}
        assert row == {"B": 2, "A": 1}
        # ... and no comparison (or lookup) leaves a per-row mapping behind
        assert Row.__slots__ == ("_schema", "_values", "_hash")
        assert row != {"A": 1, "B": 3}
        assert row != {"A": 1}

    def test_project(self):
        row = Row({"A": 1, "B": 2})
        assert row.project(["A"]) == Row({"A": 1})
        with pytest.raises(UnknownAttributeError):
            row.project(["Z"])

    def test_merge_compatible(self):
        merged = Row({"A": 1, "B": 2}).merge(Row({"B": 2, "C": 3}))
        assert merged == Row({"A": 1, "B": 2, "C": 3})

    def test_merge_conflicting(self):
        assert Row({"A": 1}).merge(Row({"A": 2})) is None

    def test_agrees_with(self):
        left, right = Row({"A": 1, "B": 2}), Row({"A": 1, "B": 3})
        assert left.agrees_with(right, ["A"])
        assert not left.agrees_with(right, ["A", "B"])

    def test_repr(self):
        assert "A=1" in repr(Row({"A": 1}))


class TestRelation:
    def test_from_tuples(self, relation):
        assert len(relation) == 3
        assert {"A": 1, "B": "x"} in relation

    def test_arity_mismatch(self, schema):
        with pytest.raises(ArityError):
            Relation.from_tuples(schema, [(1,)])

    def test_row_attribute_mismatch(self, schema):
        with pytest.raises(ArityError):
            Relation(schema, [{"A": 1, "C": 2}])

    def test_duplicates_collapse(self, schema):
        relation = Relation.from_tuples(schema, [(1, "x"), (1, "x")])
        assert len(relation) == 1

    def test_empty_relation(self, schema):
        assert Relation.empty(schema).is_empty()

    def test_iteration_is_deterministic(self, relation):
        assert list(relation) == list(relation)

    def test_values_of(self, relation):
        assert relation.values_of("A") == frozenset({1, 2})
        with pytest.raises(UnknownAttributeError):
            relation.values_of("Z")

    def test_with_rows_and_add_rows(self, relation, schema):
        replaced = relation.with_rows([{"A": 9, "B": "w"}])
        assert len(replaced) == 1
        extended = relation.add_rows([{"A": 9, "B": "w"}])
        assert len(extended) == 4

    def test_equality_ignores_relation_name(self, schema):
        other_schema = RelationSchema.of("S", ["A", "B"])
        left = Relation.from_tuples(schema, [(1, "x")])
        right = Relation.from_tuples(other_schema, [(1, "x")])
        assert left == right

    def test_contains_mapping(self, relation):
        assert {"A": 2, "B": "y"} in relation
        assert {"A": 5, "B": "q"} not in relation
        assert "not-a-row" not in relation

    def test_to_table_rendering(self, relation):
        table = relation.to_table()
        assert "A | B" in table
        limited = relation.to_table(limit=1)
        assert "more rows" in limited

    def test_to_table_empty(self, schema):
        assert "(empty)" in Relation.empty(schema).to_table()

    def test_repr(self, relation):
        assert "3 rows" in repr(relation)

    def test_to_columns_is_the_transpose(self, relation):
        rows, columns = relation.to_columns()
        assert frozenset(rows) == relation.rows and len(rows) == 3
        assert set(columns) == {"A", "B"}
        assert all(columns[attribute][position] == row[attribute]
                   for position, row in enumerate(rows)
                   for attribute in relation.attributes)
        assert Relation.empty(relation.schema).to_columns() \
            == ((), {"A": [], "B": []})

    @pytest.mark.skipif(platform.python_implementation() != "CPython",
                        reason="counts collector-tracked allocations the "
                               "way CPython does")
    def test_to_columns_allocates_nothing_per_row(self):
        # Keeps the star-zip trap shut: ``zip(*values tuples)`` allocates one
        # tracked tuple iterator per row (14 young collections here); the
        # per-slot transpose allocates a handful of lists in all.
        schema = RelationSchema.of("R", ["C", "A", "B"])
        relation = Relation.from_tuples(
            schema, [(index % 7, index, f"b{index}") for index in range(10_000)])
        thresholds = gc.get_threshold()
        gc.collect()
        gc.set_threshold(700, 10, 10)
        try:
            young = gc.get_stats()[0]["collections"]
            transposed = relation.to_columns()
            assert gc.get_stats()[0]["collections"] == young
            del transposed
            gc.disable()
            before = gc.get_count()[0]
            transposed = relation.to_columns()
            kept = gc.get_count()[0] - before
        finally:
            gc.enable()
            gc.set_threshold(*thresholds)
        assert len(transposed[0]) == 10_000
        assert kept <= 16
