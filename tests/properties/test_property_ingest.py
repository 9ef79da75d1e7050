"""Property-based checks of the one-walk ingest path against row-walk oracles.

Ingesting a never-seen relation is one transposed walk
(:meth:`Relation.to_columns` → :meth:`ColumnBlock.from_relation`) and its
exact statistics are counted from the id columns.  Both replaced a per-cell
``row[attribute]`` walk; those walks live on here, test-side, as the oracles
the new path must agree with on random relations — mixed-type values with
``1`` / ``1.0`` / ``True`` collisions, schema orders that differ from the
rows' canonical attribute order, empty, single-row and 0-ary relations.
"""

from __future__ import annotations

from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.catalog import RelationStatistics
from repro.engine.columnar import ColumnBlock, current_interner
from repro.relational import Relation, RelationSchema

COMMON_SETTINGS = settings(max_examples=150, deadline=None)

#: Schema orders drawn from this pool are rarely the canonical (sorted) one.
ATTRIBUTE_POOL = ("B", "A", "Z", "AA", "a", "C")

VALUES = st.one_of(
    st.integers(min_value=-2, max_value=3),
    st.booleans(),
    st.sampled_from((0.0, 1.0, 2.0, 1.5)),
    st.text(alphabet="xy1", max_size=2),
    st.none(),
)


@st.composite
def relations(draw):
    """A small random relation; 0-ary, empty and single-row ones included."""
    attributes = tuple(draw(st.permutations(ATTRIBUTE_POOL)))[
        :draw(st.integers(min_value=0, max_value=4))]
    tuples = draw(st.lists(st.tuples(*[VALUES] * len(attributes)), max_size=12))
    return Relation.from_tuples(RelationSchema.of("R", attributes), tuples)


def _measure_by_row_walk(relation, sample_limit=None):
    """The statistics a per-attribute walk over the rows' values counts."""
    size = len(relation)
    rows, scale, exact = relation.rows, 1.0, True
    if sample_limit is not None and size > sample_limit:
        rows = list(islice(iter(relation), sample_limit))
        scale, exact = size / len(rows), False
    distinct = {}
    for attribute in relation.schema.attributes:
        count = len({row[attribute] for row in rows})
        distinct[attribute] = count if exact \
            else min(size, max(int(count * scale + 0.5), 0))
    return RelationStatistics(edge=relation.schema.attribute_set, cardinality=size,
                              distinct_counts=distinct, exact=exact)


@COMMON_SETTINGS
@given(relation=relations())
def test_transposed_encode_equals_the_per_row_encode(relation):
    block = ColumnBlock.from_relation(relation)
    rows = block.source_rows
    assert frozenset(rows) == relation.rows and len(rows) == len(block)
    assert block.attributes == relation.schema.attributes
    interner = current_interner()
    for attribute in relation.schema.attributes:
        assert block.column(attribute) == \
            interner.encode(row[attribute] for row in rows)


@COMMON_SETTINGS
@given(relation=relations())
def test_source_rows_stay_aligned_with_the_id_columns(relation):
    block = ColumnBlock.from_relation(relation)
    for position, row in enumerate(block.source_rows):
        for attribute in relation.schema.attributes:
            assert row[attribute] == block.value_at(attribute, position)
    assert block.to_relation() == relation


@COMMON_SETTINGS
@given(relation=relations(),
       sample_limit=st.none() | st.integers(min_value=1, max_value=14))
def test_measure_equals_the_row_walk_oracle(relation, sample_limit):
    measured = RelationStatistics.measure(relation, sample_limit=sample_limit)
    expected = _measure_by_row_walk(relation, sample_limit)
    assert measured.edge == expected.edge
    assert measured.cardinality == expected.cardinality
    assert dict(measured.distinct_counts) == expected.distinct_counts
    assert list(measured.distinct_counts) == list(expected.distinct_counts)
    assert measured.exact == expected.exact
    assert measured.describe() == expected.describe()
