"""Property-based checks of multi-attribute key packing.

The code of a key of two or more attributes is a pure function of its
component ids — the Horner pack over :func:`key_radix` — and only a row with
a component the radix cannot hold interns its id tuple instead (a negative
code).  That decision is taken per row, which is what keeps a tuple's code
the same in every block, under every backend.  The suite holds this on two
levels:

* on raw id columns (``ColumnBlock._from_ids``, so ids straddle every
  width's radix — width 2's included — without interning billions of
  values): codes and id tuples are in one-to-one correspondence *across*
  blocks, fitting rows carry exactly the Horner pack, overflow rows exactly
  ``-1 - interned id``, and the two backends return the same bytes whichever
  of them filled the storage's code cache;
* on value columns full of look-alikes (``1`` / ``1.0`` / ``True``, ``None``,
  ``"1"`` next to ``1``): the block kernels over multi-attribute separators
  agree with the :mod:`repro.relational` operators, with overflow rows on
  neither side, either side or both.
"""

from __future__ import annotations

from array import array
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.columnar import (
    ColumnBlock,
    available_column_backends,
    clear_column_caches,
    current_interner,
    merge_blocks_by_scheme,
    natural_join_blocks,
    resolve_column_backend,
    semijoin_blocks,
    use_column_backend,
)
from repro.engine.columnar.buffers import ValueInterner, key_radix
from repro.relational import (
    Relation,
    RelationSchema,
    intersection,
    natural_join,
    project,
    semijoin,
)

COMMON_SETTINGS = settings(max_examples=120, deadline=None)

BACKENDS = available_column_backends()

needs_numpy = pytest.mark.skipif("numpy" not in BACKENDS,
                                 reason="numpy backend not installed")


# --------------------------------------------------------------------------- #
# The radix table
# --------------------------------------------------------------------------- #
def _is_prime(number: int) -> bool:
    return number > 1 and all(number % divisor
                              for divisor in range(2, int(number ** 0.5) + 1))


@pytest.mark.parametrize("width", range(2, 9))
def test_radix_is_the_largest_prime_whose_power_fits_63_bits(width):
    radix = key_radix(width)
    assert radix % 2 == 1  # a power of two would cluster the codes' hashes
    assert radix ** width < 2 ** 63
    assert _is_prime(radix)
    larger = radix + 1
    while larger ** width < 2 ** 63:
        assert not _is_prime(larger)
        larger += 1


def test_radix_of_the_widths_the_engine_meets():
    assert [key_radix(width) for width in (2, 3, 4)] == \
        [3_037_000_493, 2_097_143, 55_103]


# --------------------------------------------------------------------------- #
# Id level: codes ↔ id tuples, across blocks and backends
# --------------------------------------------------------------------------- #
def _components(width: int, *, fitting: bool):
    radix = key_radix(width)
    below = st.sampled_from((0, 1, 2, radix - 2, radix - 1))
    if fitting:
        return below
    return st.one_of(below, st.sampled_from((radix, radix + 1, 2 ** 40, 2 ** 62)))


@st.composite
def key_blocks(draw):
    """``(width, fitting rows, mixed rows)`` — id tuples for two blocks.

    Every fitting row has all components below the width's radix; the mixed
    rows repeat one of them, add at least one overflow row and draw the rest
    from both kinds, so the two blocks always share a tuple and only one of
    them overflows.
    """
    width = draw(st.integers(min_value=2, max_value=6))
    fitting_tuple = st.tuples(*[_components(width, fitting=True)] * width)
    overflow_tuple = st.tuples(*[_components(width, fitting=False)] * width) \
        .filter(lambda row: max(row) >= key_radix(width))
    fitting = draw(st.lists(fitting_tuple, min_size=1, max_size=8))
    mixed = draw(st.lists(fitting_tuple | overflow_tuple, max_size=8))
    mixed += [fitting[0], draw(overflow_tuple)]
    return width, fitting, draw(st.permutations(mixed))


def _id_block(name, rows, width, interner):
    attributes = tuple(f"K{index}" for index in range(width))
    columns = {attribute: array("q", (row[index] for row in rows))
               for index, attribute in enumerate(attributes)}
    return ColumnBlock._from_ids(name, attributes, columns, len(rows), interner)


def _codes(block, backend):
    with use_column_backend(resolve_column_backend(backend)):
        return block.key_codes(block.attributes)


@COMMON_SETTINGS
@given(blocks=key_blocks(), backend=st.sampled_from(BACKENDS),
       other_backend=st.sampled_from(BACKENDS))
def test_codes_equal_iff_id_tuples_equal_across_blocks(blocks, backend,
                                                       other_backend):
    width, fitting, mixed = blocks
    radix = key_radix(width)
    interner = ValueInterner()
    pairs = list(zip(fitting, _codes(_id_block("fit", fitting, width, interner),
                                     backend)))
    pairs += zip(mixed, _codes(_id_block("mix", mixed, width, interner),
                               other_backend))
    assert len(set(pairs)) == len({row for row, _ in pairs}) \
        == len({code for _, code in pairs})
    for row, code in pairs:
        if max(row) < radix:
            assert code == reduce(lambda packed, part: packed * radix + part, row)
            assert 0 <= code < 2 ** 63
        else:
            assert code < 0 and interner.values[-1 - code] == row
    # The interner grew by the distinct overflow tuples and nothing else.
    assert len(interner) == len({row for row in mixed if max(row) >= radix})


@COMMON_SETTINGS
@given(blocks=key_blocks(), backend=st.sampled_from(BACKENDS), data=st.data())
def test_kernels_on_id_blocks_match_tuple_membership(blocks, backend, data):
    width, fitting, mixed = blocks
    interner = ValueInterner()
    left = _id_block("mix", mixed, width, interner)
    right = _id_block("fit", fitting, width, interner)
    selection = data.draw(st.lists(st.sampled_from(range(len(mixed))),
                                   unique=True))
    left = left.select(selection)
    present = set(fitting)
    with use_column_backend(resolve_column_backend(backend)):
        kept = semijoin_blocks(left, right)
    assert list(kept.positions) == [p for p in selection if mixed[p] in present]


@COMMON_SETTINGS
@given(width=st.integers(min_value=2, max_value=6), data=st.data())
def test_empty_and_single_row_blocks_pack(width, data):
    overflow = data.draw(st.booleans())
    component = _components(width, fitting=not overflow)
    rows = data.draw(st.lists(st.tuples(*[component] * width), max_size=1))
    for backend in BACKENDS:
        codes = _codes(_id_block("tiny", rows, width, ValueInterner()), backend)
        assert type(codes) is array and codes.typecode == "q"
        assert [code >= 0 for code in codes] == \
            [max(row) < key_radix(width) for row in rows]


@needs_numpy
@COMMON_SETTINGS
@given(blocks=key_blocks(), first=st.sampled_from(("array", "numpy")))
def test_backends_return_byte_identical_codes(blocks, first):
    width, _, mixed = blocks
    second = "numpy" if first == "array" else "array"
    interner = ValueInterner()
    one = _id_block("one", mixed, width, interner)
    two = _id_block("two", mixed, width, interner)
    codes = _codes(one, first)
    assert _codes(two, second).tobytes() == codes.tobytes()
    # The code cache is state, not compute: whichever backend filled it, the
    # other one reads the very same array.
    assert _codes(one, second) is codes


# --------------------------------------------------------------------------- #
# Value level: the kernels against the relational operators
# --------------------------------------------------------------------------- #
#: Interned before the filler, so their ids sit below every radix in use.
LOW_VALUES = (1, None, "1", "a", 0, 2.5)
#: Interned after it, so their ids overflow the radix of every width >= 4.
HIGH_VALUES = (7, "z", -1, 3.5, ("t", 1))
#: Spellings that are equal to (and hash like) a low value, so share its id.
LOOKALIKES = (1.0, True, 0.0, False)
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
def keyed_relations(draw):
    """Two relations meeting on ``width`` key attributes, plus a payload each."""
    width = draw(st.integers(min_value=2, max_value=5))
    keys = tuple(f"K{index}" for index in range(width))
    relations = []
    for name, payload in (("left", "L"), ("right", "R")):
        pool = LOW_VALUES + LOOKALIKES
        if draw(st.booleans()):
            pool += HIGH_VALUES
        value = st.sampled_from(pool)
        tuples = draw(st.lists(st.tuples(*[value] * (width + 1)), max_size=10))
        relations.append(Relation.from_tuples(
            RelationSchema.of(name, keys + (payload,)), tuples))
    return keys, relations[0], relations[1]


def _rows(relation_or_block):
    if isinstance(relation_or_block, ColumnBlock):
        relation_or_block = relation_or_block.to_relation()
    return frozenset(relation_or_block.rows)


@COMMON_SETTINGS
@given(case=keyed_relations(), backend=st.sampled_from(BACKENDS))
def test_kernels_match_the_relational_operators_on_hostile_values(case, backend):
    keys, left, right = case
    left_keys, right_keys = project(left, keys), project(right, keys)
    # Fresh blocks per example: every key code below is computed, not cached.
    blocks = [ColumnBlock.from_relation(relation)
              for relation in (left, right, left_keys, right_keys)]
    with use_column_backend(resolve_column_backend(backend)):
        assert _rows(semijoin_blocks(blocks[0], blocks[1])) == \
            _rows(semijoin(left, right))
        assert _rows(natural_join_blocks(blocks[0], blocks[1])) == \
            _rows(natural_join(left, right))
        (merged,) = merge_blocks_by_scheme(blocks[2:]).values()
        assert _rows(merged) == _rows(intersection(left_keys, right_keys))
