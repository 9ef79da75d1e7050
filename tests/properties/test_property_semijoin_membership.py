"""Property-based: a columnar semijoin is one membership pass, memoised whole.

Five claims, each held against something that shares no code with it:

* **answers** — ``semijoin_blocks`` returns exactly what the
  :mod:`repro.relational` operator returns, on both column backends, on
  base blocks and selected views, over separators of one to four attributes
  with overflow (negative-code) rows on neither side, either or both;
* **the three outcomes** — a fixpoint hands ``left`` *itself* back cold and
  memoised, a dead end an empty block, a partial overlap equal blocks on the
  first and the second call, and every pair of views over the same two
  storages gets its own answer;
* **the membership structure** — the numpy backend's ``key_set`` +
  ``filter_membership`` (direct-addressed table or sorted codes) keep exactly
  the positions the ``array`` backend's ``frozenset`` keeps, at the table's
  sentinels, far outside its span, at the int64 rim and on both sides of the
  span rule;
* **named counts** — on the benchmark's generator-built instances one
  structure is built per reducer step on a fresh execute (14 acyclic, 8
  cyclic) and none on a new binding over the same relations, which is 14 / 8
  memo hits; a warm execute on the first binding runs no semijoin at all;
* **no Python key sets** — after a numpy-backend execute no storage holds a
  ``("set", …)`` entry or a ``frozenset`` value.
"""

from __future__ import annotations

import gc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineSession
from repro.engine.columnar import (
    ColumnBlock,
    available_column_backends,
    block_for,
    clear_column_caches,
    column_cache_info,
    current_interner,
    resolve_column_backend,
    semijoin_blocks,
    use_column_backend,
)
from repro.engine.columnar.block import _ColumnStorage
from repro.engine.columnar.buffers import DENSE_SPAN_FACTOR, key_radix
from repro.generators import (
    generate_database,
    skewed_chain_database,
    skewed_chain_endpoints,
    triangle_core_chain,
)
from repro.relational import (
    DatabaseSchema,
    Relation,
    RelationSchema,
    Row,
    semijoin,
)
from repro.telemetry.tracing import Tracer, use_tracer

from properties.strategies import benchmark_instance, rebound

COMMON_SETTINGS = settings(max_examples=120, deadline=None)

BACKENDS = available_column_backends()

needs_numpy = pytest.mark.skipif("numpy" not in BACKENDS,
                                 reason="numpy backend not installed")

# --------------------------------------------------------------------------- #
# Answers: the kernels against the relational operators
# --------------------------------------------------------------------------- #
#: Interned before the filler, so their ids sit below every radix in use.
LOW_VALUES = (0, 1, 2, "a", None, 2.5)
#: Interned after it, so their ids overflow the radix of width 4.
HIGH_VALUES = ("z", -1, ("t", 1))
FILLER = 60_000


@pytest.fixture(scope="module", autouse=True)
def generation_with_ids_on_both_sides_of_the_radix():
    clear_column_caches()
    interner = current_interner()
    interner.encode(LOW_VALUES)
    interner.encode(("filler", index) for index in range(FILLER))
    high = interner.encode(HIGH_VALUES)
    assert min(high) >= FILLER > key_radix(4)
    yield
    clear_column_caches()


@st.composite
def separated_relations(draw):
    """Two skewed relations meeting on ``width`` key attributes, a payload each.

    Most cells repeat the first two low values, so keys collide often; a
    side that also draws high values has overflow rows at width 4.
    """
    width = draw(st.integers(min_value=1, max_value=4))
    keys = tuple(f"K{index}" for index in range(width))
    relations = []
    for name, payload in (("left", "L"), ("right", "R")):
        pool = LOW_VALUES[:2] * 4 + LOW_VALUES
        if draw(st.booleans()):
            pool += HIGH_VALUES * 2
        value = st.sampled_from(pool)
        tuples = draw(st.lists(st.tuples(*[value] * (width + 1)), max_size=12))
        relations.append(Relation.from_tuples(
            RelationSchema.of(name, keys + (payload,)), tuples))
    return relations


def _row_at(block, position):
    """The row a block's storage holds at ``position``, read value by value."""
    return Row({attribute: block.value_at(attribute, position)
                for attribute in block.attributes})


def _drawn_view(draw, base, relation):
    """A drawn selection of ``base`` and the relation of exactly those rows."""
    positions = draw(st.lists(st.sampled_from(range(len(base))), unique=True)) \
        if len(base) else []
    rows = frozenset(_row_at(base, position) for position in positions)
    return base.select(positions), Relation.from_valid_rows(relation.schema, rows)


def _view(draw, relation):
    """``(block, relation)`` — the base block, or a drawn selection of it."""
    block = ColumnBlock.from_relation(relation)
    if draw(st.booleans()):
        return block, relation
    return _drawn_view(draw, block, relation)


def _rows(relation_or_block):
    if isinstance(relation_or_block, ColumnBlock):
        relation_or_block = relation_or_block.to_relation()
    return frozenset(relation_or_block.rows)


@COMMON_SETTINGS
@given(relations=separated_relations(), backend=st.sampled_from(BACKENDS),
       data=st.data())
def test_kernels_match_the_relational_operators(relations, backend, data):
    (left, left_rows), (right, right_rows) = (_view(data.draw, relation)
                                              for relation in relations)
    with use_column_backend(resolve_column_backend(backend)):
        expected = _rows(semijoin(left_rows, right_rows))
        kept = semijoin_blocks(left, right)
        assert _rows(kept) == expected
        # Selection order survives the filter, and the memo answers alike.
        assert list(kept.positions) == \
            [p for p in left.positions if _row_at(left, p) in expected]
        again = semijoin_blocks(left, right)
        assert again is left if kept is left else _rows(again) == expected


@COMMON_SETTINGS
@given(relations=separated_relations(), backend=st.sampled_from(BACKENDS),
       data=st.data())
def test_views_of_one_storage_are_answered_per_view(relations, backend, data):
    # The memo lives on the left storage and names the right one: every view
    # pair over the same two storages must still get its own answer.
    bases = [ColumnBlock.from_relation(relation) for relation in relations]
    with use_column_backend(resolve_column_backend(backend)):
        for _ in range(3):
            (left, left_rows), (right, right_rows) = (
                _drawn_view(data.draw, base, relation)
                for base, relation in zip(bases, relations))
            assert _rows(semijoin_blocks(left, right)) == \
                _rows(semijoin(left_rows, right_rows))


# --------------------------------------------------------------------------- #
# The three outcomes
# --------------------------------------------------------------------------- #
def _keyed(name, keys, payload):
    return block_for(Relation.from_tuples(
        RelationSchema.of(name, ("K", payload)),
        [(key, f"{payload}{key}") for key in keys]))


def _traced(kernel, left, right):
    tracer = Tracer()
    with use_tracer(tracer):
        result = kernel(left, right)
    (record,) = tracer.records
    return result, record["attributes"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_fixpoint_returns_left_itself_cold_and_memoised(backend):
    left, right = _keyed("left", range(5), "L"), _keyed("right", range(9), "R")
    with use_column_backend(resolve_column_backend(backend)):
        for memo in ("miss", "hit"):
            result, attributes = _traced(semijoin_blocks, left, right)
            assert result is left
            assert (attributes["outcome"], attributes["memo"]) == ("fixpoint", memo)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_dead_end_returns_an_empty_block(backend):
    left, right = _keyed("left", range(5), "L"), _keyed("right", range(20, 25), "R")
    with use_column_backend(resolve_column_backend(backend)):
        for memo in ("miss", "hit"):
            result, attributes = _traced(semijoin_blocks, left, right)
            assert result is not left and len(result) == 0
            assert result.attributes == left.attributes
            assert (attributes["outcome"], attributes["memo"]) == ("empty", memo)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_partial_overlap_returns_equal_blocks_twice(backend):
    left, right = _keyed("left", range(6), "L"), _keyed("right", range(3, 9), "R")
    with use_column_backend(resolve_column_backend(backend)):
        for memo in ("miss", "hit"):
            result, attributes = _traced(semijoin_blocks, left, right)
            assert result is not left
            assert {row["K"] for row in result.to_relation().rows} == {3, 4, 5}
            assert (attributes["outcome"], attributes["memo"]) == ("partial", memo)


def test_a_semijoin_without_shared_attributes_has_no_memo():
    left = _keyed("left", range(3), "L")
    other = block_for(Relation.from_tuples(RelationSchema.of("other", ("Z",)),
                                           [(1,)]))
    result, attributes = _traced(semijoin_blocks, left, other)
    assert result is left and attributes["outcome"] == "fixpoint"
    assert "memo" not in attributes
    result, attributes = _traced(semijoin_blocks, left, other.empty())
    assert len(result) == 0 and attributes["outcome"] == "empty"
    assert "memo" not in attributes


# --------------------------------------------------------------------------- #
# The membership structure: numpy against the array backend
# --------------------------------------------------------------------------- #
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

#: Probes no table span may ever answer ``True`` for by wrapping around.
RIM = (INT64_MIN, INT64_MIN + 1, -(1 << 62) - 1, -(1 << 62), -(1 << 62) + 1,
       -10 ** 12, -1, 0, 1, 10 ** 12, (1 << 62) - 1, 1 << 62, (1 << 62) + 1,
       INT64_MAX - 1, INT64_MAX)


def _kept(backend, build, build_positions, probes, probe_positions):
    backend = resolve_column_backend(backend)
    structure = backend.key_set(array("q", build), build_positions)
    return structure, backend.filter_membership(
        array("q", probes), probe_positions, structure)


def _assert_backends_agree(build, probes, build_positions=None,
                           probe_positions=None):
    build_positions = range(len(build)) if build_positions is None \
        else array("q", build_positions)
    probe_positions = range(len(probes)) if probe_positions is None \
        else array("q", probe_positions)
    present = {build[position] for position in build_positions}
    structure = None
    expected = array("q", (position for position in probe_positions
                           if probes[position] in present))
    for backend in BACKENDS:
        structure, kept = _kept(backend, build, build_positions, probes,
                                probe_positions)
        assert type(kept) is array and kept.typecode == "q"
        assert kept == expected, backend
    return structure  # the last backend's: numpy's when it is installed


def _around(low, high):
    """The span's ends, their outer neighbours and the rim — inside int64."""
    near = (low - 1, low, low + 1, high - 1, high, high + 1)
    return [probe for probe in near + RIM if INT64_MIN <= probe <= INT64_MAX]


@pytest.mark.parametrize("low, high", [
    (10, 20), (0, 0), (-50, -10), (-3, 3),
    ((1 << 62) - 4, (1 << 62) + 4), (-(1 << 62) - 4, -(1 << 62) + 4),
    (INT64_MAX - 6, INT64_MAX), (INT64_MAX - 6, INT64_MAX - 1),
    (INT64_MIN, INT64_MIN + 6), (INT64_MIN + 1, INT64_MIN + 6),
])
def test_dense_codes_at_the_sentinels_and_the_rim(low, high):
    build = list(range(low, high + 1, 2)) + [high]
    _assert_backends_agree(build, _around(low, high))


@pytest.mark.parametrize("build", [
    [-(1 << 62), 1 << 62],
    [INT64_MIN, INT64_MAX],
    [INT64_MIN, 0, INT64_MAX],
    [0, 3_037_000_493 * 7 + 5, 3_037_000_493 * 2_000 + 1],  # packed width-2 keys
    [-1 - 60_000, -1 - 60_001, 5],  # overflow (interned) codes beside a pack
])
def test_sparse_codes_take_the_sorted_path(build):
    structure = _assert_backends_agree(build, _around(min(build), max(build))
                                       + build)
    if "numpy" in BACKENDS:
        assert type(structure) is not tuple


@needs_numpy
@pytest.mark.parametrize("rows", [2, 3, 7, 100])
def test_the_span_rule_is_a_fixed_multiple_of_the_build_rows(rows):
    def structure_over(span):
        build = list(range(rows - 1)) + [span - 1]  # ``rows`` codes, that span
        return _assert_backends_agree(build, _around(0, span - 1) + build)

    floor, table = structure_over(DENSE_SPAN_FACTOR * rows)
    # One False sentinel slot below the lowest code and one above the highest.
    assert floor == -1 and table.size == DENSE_SPAN_FACTOR * rows + 2
    assert not table[0] and not table[-1] and table[1] and table[-2]
    assert type(structure_over(DENSE_SPAN_FACTOR * rows + 1)) is not tuple


def test_empty_sides():
    _assert_backends_agree([], [1, 2, 3])
    _assert_backends_agree([1, 2, 3], [])
    _assert_backends_agree([], [])
    _assert_backends_agree([5, 6, 7], [5, 9], build_positions=[])
    _assert_backends_agree([5, 6, 7], [5, 9], probe_positions=[])


def test_duplicate_heavy_and_all_distinct_columns():
    heavy = [index % 4 + 100 for index in range(10_000)]
    distinct = list(range(-2_000, 2_000))
    _assert_backends_agree(heavy, distinct)
    _assert_backends_agree(distinct, heavy)
    _assert_backends_agree(heavy, heavy, build_positions=range(0, 10_000, 7),
                           probe_positions=range(9_999, 0, -3))


@st.composite
def code_columns(draw):
    """``(build, probes)`` clustered around one base, salted with rim codes."""
    base = draw(st.sampled_from((0, -100, 1 << 62, -(1 << 62), INT64_MAX - 60,
                                 INT64_MIN + 10)))
    spread = draw(st.sampled_from((5, 50, 5_000)))
    top = min(base + spread, INT64_MAX)
    code = st.one_of(st.integers(max(base - 10, INT64_MIN), top),
                     st.sampled_from(RIM))
    clustered = st.integers(base, top)
    build = draw(st.lists(draw(st.sampled_from((code, clustered))), max_size=30))
    return build, draw(st.lists(code, max_size=30))


@COMMON_SETTINGS
@given(columns=code_columns(), data=st.data())
def test_numpy_membership_is_the_array_backends(columns, data):
    build, probes = columns
    build_positions = probe_positions = None
    if build and data.draw(st.booleans()):
        build_positions = data.draw(st.lists(st.sampled_from(range(len(build)))))
    if probes and data.draw(st.booleans()):
        probe_positions = data.draw(st.lists(st.sampled_from(range(len(probes)))))
    _assert_backends_agree(build, probes, build_positions, probe_positions)


# --------------------------------------------------------------------------- #
# Named counts, and no Python key set left behind
# --------------------------------------------------------------------------- #
def _membership_counts(run):
    before = column_cache_info()
    run()
    after = column_cache_info()
    return (after["keyset_misses"] - before["keyset_misses"],
            after["keyset_hits"] - before["keyset_hits"])


@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind, steps", [("acyclic", 14), ("cyclic", 8)])
def test_one_structure_per_reducer_step_and_none_warm(kind, steps, backend):
    database, outputs = benchmark_instance(kind)
    session = EngineSession(column_backend=backend)
    prepared = session.prepare(database, outputs)
    started = _storage_serial()
    assert _membership_counts(lambda: prepared.execute(database)) == (steps, 0)
    for _ in range(3):
        second = rebound(database)
        assert _membership_counts(lambda: prepared.execute(second)) == (0, steps)
        assert _membership_counts(lambda: prepared.execute(second)) == (0, 0)
    if backend == "numpy":
        _assert_no_python_key_sets(started)


def _storage_serial():
    """A storage token drawn now: every later storage's is greater."""
    return ColumnBlock.from_columns("serial", (), {}, length=0).storage_token()


def _assert_no_python_key_sets(started):
    """No ``("set", …)`` family, no boxed-id ``frozenset`` on a storage built since."""
    storages = [candidate for candidate in gc.get_objects()
                if type(candidate) is _ColumnStorage
                and candidate.token > started]
    assert storages
    derived = [(key, value) for storage in storages
               for key, value in storage._derived.items()]
    assert {key[0] for key, _ in derived} >= {"semi", "prepared"}
    for key, value in derived:
        assert key[0] != "set"
        assert not isinstance(value, (set, frozenset))


@needs_numpy
@pytest.mark.parametrize("kind", ["acyclic", "cyclic"])
def test_no_key_set_is_left_on_any_storage_after_a_numpy_execute(kind):
    if kind == "acyclic":
        database = skewed_chain_database(5, heads=6, fanout=4, seed=2)
        outputs = skewed_chain_endpoints(5)
    else:
        database = generate_database(
            DatabaseSchema.from_hypergraph(triangle_core_chain(3)),
            universe_rows=40, domain_size=6, dangling_fraction=0.4, seed=5)
        outputs = ("C0", "C4")
    session = EngineSession(column_backend="numpy")
    started = _storage_serial()
    prepared = session.prepare(database, outputs)
    for _ in range(2):
        result = prepared.execute(database)
    assert len(result.relation.rows)
    _assert_no_python_key_sets(started)
