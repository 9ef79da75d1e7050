"""Property-based checks of the one-walk ingest path against row-walk oracles.

Ingesting a never-seen relation is one transposed walk
(:meth:`Relation.to_columns` → :meth:`ColumnBlock.from_relation`) and its
exact statistics are counted from the id columns.  Both replaced a per-cell
``row[attribute]`` walk; those walks live on here, test-side, as the oracles
the new path must agree with on random relations — mixed-type values with
``1`` / ``1.0`` / ``True`` collisions, schema orders that differ from the
rows' canonical attribute order, empty, single-row and 0-ary relations.

Below them the pieces ingest is made of, each against a reference that
shares no code with it:

* ``distinct_count`` — the numpy backend's count of its membership
  structure (dense table or sorted codes) equals the ``array`` backend's set
  size and a ``len(set())`` oracle, on both sides of the span rule, at
  negative (overflow) codes and at ±2**62;
* ``ValueInterner.encode`` — the lock-free lookup pass plus the locked
  fix-up assigns exactly the ids a per-cell loop assigns, on interners
  pre-seeded to hit nothing, some or everything of the column, and counts
  the cells it resolved under the lock;
* catalogs — base and cyclic-quotient — read identically on both backends.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import QueryPlanner
from repro.engine.catalog import RelationStatistics, StatisticsCatalog
from repro.engine.columnar import (
    ColumnBlock,
    available_column_backends,
    catalog_from_blocks,
    current_interner,
    resolve_column_backend,
    use_column_backend,
)
from repro.engine.columnar.buffers import DENSE_SPAN_FACTOR, ValueInterner
from repro.engine.cyclic.quotient import materialise_cluster_blocks
from repro.generators import generate_database, skewed_chain_database, triangle_core_chain
from repro.relational import DatabaseSchema, Relation, RelationSchema

from .strategies import skewed_acyclic_databases, skewed_cyclic_databases

COMMON_SETTINGS = settings(max_examples=150, deadline=None)

BACKENDS = available_column_backends()

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
def relations(draw, values=VALUES):
    """A small random relation; 0-ary, empty and single-row ones included."""
    attributes = tuple(draw(st.permutations(ATTRIBUTE_POOL)))[
        :draw(st.integers(min_value=0, max_value=4))]
    tuples = draw(st.lists(st.tuples(*[values] * len(attributes)), max_size=12))
    return Relation.from_tuples(RelationSchema.of("R", attributes), tuples)


def _measure_by_row_walk(relation):
    """The statistics a per-attribute walk over the rows' values counts."""
    distinct = {attribute: len({row[attribute] for row in relation.rows})
                for attribute in relation.schema.attributes}
    return RelationStatistics(edge=relation.schema.attribute_set,
                              cardinality=len(relation), distinct_counts=distinct)


@COMMON_SETTINGS
@given(relation=relations())
def test_transposed_encode_equals_the_per_row_encode(relation):
    block = ColumnBlock.from_relation(relation)
    rows = relation.to_columns()[0]
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
    for position, row in enumerate(relation.to_columns()[0]):
        for attribute in relation.schema.attributes:
            assert row[attribute] == block.value_at(attribute, position)
    assert block.to_relation() == relation


@COMMON_SETTINGS
@given(relation=relations())
def test_measure_equals_the_row_walk_oracle(relation):
    measured = RelationStatistics.measure(relation)
    expected = _measure_by_row_walk(relation)
    assert measured.edge == expected.edge
    assert measured.cardinality == expected.cardinality
    assert dict(measured.distinct_counts) == expected.distinct_counts
    assert list(measured.distinct_counts) == list(expected.distinct_counts)
    assert measured.describe() == expected.describe()


# --------------------------------------------------------------------------- #
# distinct_count: numpy against the array backend and a set oracle
# --------------------------------------------------------------------------- #
def _assert_distinct_counts_agree(codes, positions=None):
    """Every backend's count equals the set size; returns numpy's structure."""
    codes = array("q", codes)
    positions = range(len(codes)) if positions is None else array("q", positions)
    expected = len({codes[position] for position in positions})
    for backend in BACKENDS:
        counted = resolve_column_backend(backend).distinct_count(codes, positions)
        assert type(counted) is int and counted == expected, backend
    if "numpy" in BACKENDS:
        return resolve_column_backend("numpy").key_set(codes, positions)
    return None


@pytest.mark.parametrize("codes, positions", [
    ([], None), ([5, 6, 7], []), ([0], None), ([7, 7, 7], None), ([7, 8], [1]),
    ([-(1 << 62)], None), ([1 << 62], None), ([-(1 << 62), 1 << 62], None),
    ([-(1 << 62), 0, 1 << 62, 0], [3, 1, 0]),
    (list(range((1 << 62) - 3, (1 << 62) + 4)) * 2, None),
    (list(range(-(1 << 62) - 3, -(1 << 62) + 4)) * 2, [0, 2, 4, 6, 7, 9]),
    ([-1 - 60_000, -1 - 60_001, 5, 5, -1 - 60_000], None),  # overflow codes
    ([-1 - 60_000, -1 - 60_001, 5, 5, -1 - 60_000], [4, 0, 2]),
    ([0, 3_037_000_493 * 7 + 5, 3_037_000_493 * 2_000 + 1, 0], None),  # packs
])
def test_distinct_counts_at_the_edges(codes, positions):
    _assert_distinct_counts_agree(codes, positions)


@pytest.mark.parametrize("rows", [2, 3, 7, 100])
def test_distinct_counts_on_both_sides_of_the_span_rule(rows):
    for span, dense in ((DENSE_SPAN_FACTOR * rows, True),
                        (DENSE_SPAN_FACTOR * rows + 1, False)):
        codes = list(range(rows - 1)) + [span - 1]  # ``rows`` codes, that span
        _assert_distinct_counts_agree(codes, [rows - 1, 0, rows - 1])
        structure = _assert_distinct_counts_agree(codes)
        if structure is not None:
            assert (type(structure) is tuple) == dense


@st.composite
def code_columns(draw):
    """Codes clustered around one base (duplicates likely), and a selection."""
    base = draw(st.sampled_from((0, -100, -1 - 60_000, 1 << 62, -(1 << 62))))
    spread = draw(st.sampled_from((3, 50, 5_000)))
    codes = draw(st.lists(st.integers(base, base + spread), max_size=40))
    positions = None
    if codes and draw(st.booleans()):
        positions = draw(st.lists(st.sampled_from(range(len(codes)))))
    return codes, positions


@COMMON_SETTINGS
@given(columns=code_columns())
def test_numpy_distinct_count_is_the_array_backends(columns):
    _assert_distinct_counts_agree(*columns)


# --------------------------------------------------------------------------- #
# encode: the lock-free pass plus the locked fix-up against a per-cell loop
# --------------------------------------------------------------------------- #
def _per_cell_encode(ids, values, column):
    """The reference: one locked walk, a new id at every value's first appearance."""
    encoded = []
    for value in column:
        code = ids.get(value)
        if code is None:
            code = len(values)
            values.append(value)
            ids[value] = code
        encoded.append(code)
    return encoded


def _assert_encode_is_the_per_cell_loop(seed, column):
    interner, ids, values = ValueInterner(), {}, []
    interner.encode(seed)
    _per_cell_encode(ids, values, seed)
    known = dict(interner._value_ids)
    locked = interner.locked_cells
    encoded = interner.encode(iter(column))
    assert type(encoded) is array and encoded.typecode == "q"
    assert list(encoded) == _per_cell_encode(ids, values, column)
    # Dense, first-appearance order, and the very objects stored.
    assert len(interner) == len(values) == len(interner._value_ids)
    assert all(stored is value for stored, value in zip(interner.values, values))
    # Decode hands back the stored objects themselves.
    decoded = interner.decode(encoded)
    assert all(got is values[code] for got, code in zip(decoded, encoded))
    assert len(decoded) == len(column)
    # A column that starts with a new value goes under the lock whole;
    # otherwise only the cells the lookup pass could not resolve do.
    if column and known.get(column[0]) is None:
        expected = len(column)
    else:
        expected = sum(known.get(value) is None for value in column)
    assert interner.locked_cells - locked == expected


def _nan():
    return float("nan")


NAN_ONE, NAN_TWO = _nan(), _nan()


@pytest.mark.parametrize("seed, column", [
    ([1, 2, 3], []),
    ([1, 2, 3], [3, 1, 2, 3]),                   # every cell known
    ([1, 2, 3], ["new", 1, 2, 3]),               # a miss at the first position
    ([1, 2, 3], [1, 2, 3, "new"]),               # a miss at the last position
    (["a"], ["a", "x", "a", "x", "x"]),          # repeats of one miss
    ([1], [1, 1.0, True, 2.0, 2, False, 0]),     # 1 / 1.0 / True collisions
    (["s"], ["s", 1.0, True, 1, 0.0, False]),    # collisions among new values
    ([NAN_ONE], [NAN_ONE, NAN_TWO, NAN_ONE, NAN_TWO, _nan()]),  # NaN objects
    ([], [NAN_ONE, NAN_ONE, _nan()]),
    ([], ["a", "b", "a"]),                       # a fresh interner
])
def test_encode_is_the_per_cell_loop_at_the_edges(seed, column):
    _assert_encode_is_the_per_cell_loop(seed, column)


ENCODE_VALUES = st.one_of(
    VALUES,
    st.sampled_from((True, 1, 1.0, False, 0, 0.0)),
    st.builds(_nan),
    st.tuples(st.integers(min_value=0, max_value=2)),
)


@st.composite
def seeded_columns(draw):
    """A seed for the interner and a column hitting none, some or all of it."""
    seed = draw(st.lists(ENCODE_VALUES, max_size=12))
    hits = draw(st.sampled_from(("none", "mixed", "all")))
    fresh = ENCODE_VALUES.filter(lambda value: value not in seed)
    if not seed or hits == "none":
        value = fresh
    elif hits == "all":
        value = st.sampled_from(seed)
    else:
        value = st.one_of(st.sampled_from(seed), fresh)
    return seed, draw(st.lists(value, max_size=20))


@COMMON_SETTINGS
@given(case=seeded_columns())
def test_encode_is_the_per_cell_loop(case):
    _assert_encode_is_the_per_cell_loop(*case)


# --------------------------------------------------------------------------- #
# Catalogs read alike on both backends
# --------------------------------------------------------------------------- #
DATABASE_SETTINGS = settings(max_examples=40, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


def _described_per_backend(build):
    described = []
    for backend in BACKENDS:
        with use_column_backend(resolve_column_backend(backend)):
            described.append(build().describe())
    return described


def _assert_base_catalogs_agree(database):
    oracle = StatisticsCatalog(map(_measure_by_row_walk, database.relations()))
    described = _described_per_backend(
        lambda: StatisticsCatalog.from_relations(database.relations()))
    assert described == [oracle.describe()] * len(BACKENDS)


def _assert_quotient_catalogs_agree(database, wanted):
    """The cyclic executor's quotient catalog, against the decoded values' counts.

    Projected cluster blocks are selections over join outputs, so the counts
    run over selected positions.
    """
    plan = QueryPlanner().cyclic_plan_for(database.schema.to_hypergraph())
    materialised = materialise_cluster_blocks(plan.cover, database.relations(),
                                              wanted=wanted)
    oracle = StatisticsCatalog(
        RelationStatistics(
            edge=scheme, cardinality=len(block),
            distinct_counts={attribute: len({block.value_at(attribute, position)
                                             for position in block.positions})
                             for attribute in block.attributes})
        for block, scheme in zip(materialised.blocks, materialised.schemes))
    described = _described_per_backend(
        lambda: catalog_from_blocks(materialised.blocks, materialised.schemes))
    assert described == [oracle.describe()] * len(BACKENDS)


@DATABASE_SETTINGS
@given(database=st.one_of(skewed_acyclic_databases(), skewed_cyclic_databases()))
def test_base_catalogs_read_alike_on_both_backends(database):
    _assert_base_catalogs_agree(database)


@DATABASE_SETTINGS
@given(database=skewed_cyclic_databases(), data=st.data())
def test_quotient_catalogs_read_alike_on_both_backends(database, data):
    attributes = sorted(database.schema.attributes)
    _assert_quotient_catalogs_agree(
        database, frozenset(data.draw(st.sets(st.sampled_from(attributes)))))


@pytest.mark.slow
def test_catalogs_of_the_benchmark_sized_instances_read_alike():
    # 10 000-row id columns: the dense-table counts at the size ingest runs at.
    _assert_base_catalogs_agree(skewed_chain_database(
        8, heads=200, fanout=50, junction_values=4, seed=1))
    core = generate_database(
        DatabaseSchema.from_hypergraph(triangle_core_chain(4)),
        universe_rows=2000, domain_size=40, dangling_fraction=0.5, seed=4)
    _assert_base_catalogs_agree(core)
    # With outputs: the unprojected cluster is a 23 632-row join.
    _assert_quotient_catalogs_agree(core, frozenset({"C0", "C5"}))
