"""The relational hash operators: semijoin, antijoin and natural join.

``repro.relational`` is the reference the engine is tested against, so its
operators are checked here against their definitions: the behaviour cases
spell out the degenerate separators, and a property test compares each
operator with a nested loop over both row sets, written in this file.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import Relation, RelationSchema, antijoin, natural_join, semijoin


@pytest.fixture
def r_ab():
    return Relation.from_tuples(RelationSchema.of("R", ("A", "B")),
                                [(1, 10), (2, 20), (3, 30)])


@pytest.fixture
def s_bc():
    return Relation.from_tuples(RelationSchema.of("S", ("B", "C")),
                                [(10, "x"), (10, "y"), (30, "z")])


@pytest.fixture
def t_z():
    return Relation.from_tuples(RelationSchema.of("T", ("Z",)), [(0,), (1,)])


class TestSemijoin:
    def test_keeps_joining_rows_only(self, r_ab, s_bc):
        result = semijoin(r_ab, s_bc)
        assert {row["A"] for row in result.rows} == {1, 3}
        assert result.schema == r_ab.schema

    def test_empty_separator_keeps_everything_iff_right_is_non_empty(self, r_ab, t_z):
        assert semijoin(r_ab, t_z) == r_ab
        assert len(semijoin(r_ab, t_z.with_rows([]))) == 0

    def test_name_renames_the_result(self, r_ab, s_bc):
        assert semijoin(r_ab, s_bc, name="R2").name == "R2"


class TestAntijoin:
    def test_is_the_complement_of_the_semijoin(self, r_ab, s_bc):
        kept = semijoin(r_ab, s_bc)
        dropped = antijoin(r_ab, s_bc)
        assert kept.rows | dropped.rows == r_ab.rows
        assert not kept.rows & dropped.rows

    def test_empty_separator(self, r_ab, t_z):
        assert len(antijoin(r_ab, t_z)) == 0
        assert antijoin(r_ab, t_z.with_rows([])) == r_ab


class TestNaturalJoin:
    def test_merges_rows_that_agree_on_the_separator(self, r_ab, s_bc):
        result = natural_join(r_ab, s_bc)
        assert len(result) == 3  # (1,10)x{x,y}, (3,30)x{z}
        assert result.attributes == ("A", "B", "C")
        assert result.name == "(R ⋈ S)"

    def test_empty_separator_is_the_cartesian_product(self, r_ab, t_z):
        result = natural_join(r_ab, t_z)
        assert len(result) == len(r_ab) * len(t_z)
        assert result.attributes == ("A", "B", "Z")


# --------------------------------------------------------------------------- #
# Against nested-loop definitions
# --------------------------------------------------------------------------- #
def _agree(left_row, right_row) -> bool:
    return all(left_row[attribute] == right_row[attribute]
               for attribute in left_row if attribute in right_row)


@st.composite
def relations(draw, name: str) -> Relation:
    attributes = draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=3,
                               unique=True))
    rows = draw(st.lists(st.tuples(*(st.integers(0, 2) for _ in attributes)),
                         max_size=8))
    return Relation.from_tuples(RelationSchema.of(name, attributes), rows)


@settings(max_examples=150, deadline=None)
@given(left=relations("L"), right=relations("R"))
def test_operators_match_their_nested_loop_definitions(left, right):
    partners = {row: [other for other in right.rows if _agree(row, other)]
                for row in left.rows}
    assert semijoin(left, right).rows == frozenset(
        row for row, matched in partners.items() if matched)
    assert antijoin(left, right).rows == frozenset(
        row for row, matched in partners.items() if not matched)
    joined = natural_join(left, right)
    assert joined.rows == frozenset(
        row.merge(other) for row, matched in partners.items() for other in matched)
    assert joined.schema.attribute_set \
        == left.schema.attribute_set | right.schema.attribute_set
