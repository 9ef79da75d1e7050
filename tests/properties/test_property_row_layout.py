"""Property tests for the schema-shared ``Row`` layout, against the layout it replaced.

A :class:`~repro.relational.relation.Row` is stored as ``(_schema, _values,
_hash)`` — one interned schema object per attribute *set*, the cells as a
plain tuple in canonical order.  Before, it was ``((attribute, value), …)``
plus a lazily built per-row ``dict``.  :class:`_LegacyRow` below is a frozen
copy of that class, kept in this module only, and is the oracle: over hostile
values (``None``, ``1`` / ``1.0`` / ``True`` and ``0`` / ``False`` colliding
under ``==``, ``str`` next to ``int``, a tuple cell) and attribute sets of
width 0–5 handed over in non-canonical insertion order, everything a caller
can observe of a row — equality in both directions against rows and dicts,
hashing into sets, ``repr``, the ``Mapping`` views, ``project`` / ``merge`` /
``agrees_with`` and the exceptions — must agree between the two.

What the old layout could not do is then pinned on its own: rows over
different attribute sets with equal cells stay unequal although they now hash
alike; pickling, ``copy`` and ``deepcopy`` give back a row that shares the
local schema; equality never *depends* on that sharing (a hand-built duplicate
schema still compares equal); and threads racing to intern never-seen
attribute sets end with one row per value tuple.
"""

from __future__ import annotations

import copy
import itertools
import pickle
import sys
import threading
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.nodes import sorted_nodes
from repro.exceptions import UnknownAttributeError
from repro.relational.relation import Row, _rebuild_row, _RowSchema

from .test_property_result_boundary import HOSTILE_NAMES, HOSTILE_VALUES

COMMON_SETTINGS = settings(max_examples=150, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])

#: The result boundary's pool plus one structured (hashable) cell.
VALUES = HOSTILE_VALUES + ((1, "x"),)
NAMES = tuple(HOSTILE_NAMES.values())


class _LegacyRow(Mapping):
    """The row layout before the schema-shared one, verbatim — the oracle."""

    __slots__ = ("_items", "_mapping", "_hash")

    def __init__(self, values: Mapping[Any, Any]) -> None:
        self._items: Tuple[Tuple[Any, Any], ...] = tuple(
            sorted(values.items(), key=lambda item: sorted_nodes([item[0]])))
        self._mapping: Optional[Dict[Any, Any]] = None
        self._hash: Optional[int] = None

    def __getitem__(self, attribute: Any) -> Any:
        mapping = self._mapping
        if mapping is None:
            mapping = self._mapping = dict(self._items)
        return mapping[attribute]

    def __iter__(self) -> Iterator[Any]:
        return iter(key for key, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._items)
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _LegacyRow):
            return self._items == other._items
        if isinstance(other, Mapping):
            mapping = self._mapping
            if mapping is None:
                mapping = self._mapping = dict(self._items)
            return mapping == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{key}={value!r}" for key, value in self._items)
        return f"Row({inner})"

    def project(self, attributes: Iterable[Any]) -> "_LegacyRow":
        wanted = list(attributes)
        missing = [attribute for attribute in wanted if attribute not in self]
        if missing:
            raise UnknownAttributeError(missing[0])
        return _LegacyRow({attribute: self[attribute] for attribute in wanted})

    def merge(self, other: "_LegacyRow") -> Optional["_LegacyRow"]:
        combined: Dict[Any, Any] = dict(self._items)
        for attribute, value in other.items():
            if attribute in combined and combined[attribute] != value:
                return None
            combined[attribute] = value
        return _LegacyRow(combined)

    def agrees_with(self, other: "_LegacyRow", attributes: Iterable[Any]) -> bool:
        return all(self.get(attribute) == other.get(attribute)
                   for attribute in attributes)


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
#: A row's cells as a dict whose *insertion* order is the drawn list's —
#: canonical order only by accident.
mappings = st.lists(st.sampled_from(NAMES), unique=True, max_size=5).flatmap(
    lambda names: st.fixed_dictionaries(
        {name: st.sampled_from(VALUES) for name in names}))


@st.composite
def mapping_pairs(draw):
    """Two cell dicts that are often equal, often one cell apart, sometimes unrelated."""
    left = draw(mappings)
    kind = draw(st.sampled_from(("same", "respelled", "one-cell", "unrelated")))
    if kind == "unrelated":
        return left, draw(mappings)
    right = dict(reversed(list(left.items())))             # another insertion order
    if kind != "same" and right:
        name = draw(st.sampled_from(sorted(right)))
        if kind == "respelled":                            # 1 -> True, 0 -> False, ...
            equal = [value for value in VALUES if value == right[name]]
            right[name] = draw(st.sampled_from(equal))
        else:
            right[name] = draw(st.sampled_from(VALUES))
    return left, right


def spelled(values: Iterable[Any]) -> str:
    """``repr`` of a sequence: tells ``1`` from ``True`` where ``==`` does not."""
    return repr(list(values))


def same_row(new: Optional[Row], old: Optional[_LegacyRow]) -> bool:
    if new is None or old is None:
        return new is None and old is None
    return repr(new) == repr(old) and dict(new) == dict(old)


# --------------------------------------------------------------------------- #
# Agreement with the legacy layout
# --------------------------------------------------------------------------- #
@COMMON_SETTINGS
@given(mapping_pairs())
def test_equality_and_hashing_agree_with_the_legacy_row(pair):
    left, right = pair
    new_left, new_right = Row(left), Row(right)
    old_left, old_right = _LegacyRow(left), _LegacyRow(right)
    expected = old_left == old_right
    assert (new_left == new_right) is expected
    assert (new_right == new_left) is expected
    assert (new_left != new_right) is (old_left != old_right) is (not expected)
    # Against plain dicts, from either side.
    assert (new_left == right) is (old_left == right)
    assert (right == new_left) is (right == old_left)
    assert (new_left != right) is (old_left != right)
    assert (right != new_left) is (right != old_left)
    assert new_left == left and left == new_left
    # Hash-set membership and set equality.
    if expected:
        assert hash(new_left) == hash(new_right)
    assert (new_right in {new_left}) is (old_right in {old_left})
    assert len(frozenset([new_left, new_right])) \
        == len(frozenset([old_left, old_right]))
    assert frozenset([new_left, new_right]) == frozenset([new_right, new_left])
    assert (frozenset([new_left]) == frozenset([new_right])) is expected
    assert new_left != 7 and new_left != tuple(left.items())


@COMMON_SETTINGS
@given(mappings)
def test_the_mapping_views_agree_with_the_legacy_row(cells):
    new, old = Row(cells), _LegacyRow(cells)
    assert repr(new) == repr(old)
    assert tuple(new) == tuple(old) == sorted_nodes(cells)
    assert len(new) == len(old) == len(cells)
    assert spelled(new.keys()) == spelled(old.keys())
    assert spelled(new.items()) == spelled(old.items())
    assert spelled(new.values()) == spelled(old.values())
    for name in NAMES + ("missing", 7, None):
        assert (name in new) is (name in old) is (name in cells)
        assert spelled([new.get(name), new.get(name, "default")]) \
            == spelled([old.get(name), old.get(name, "default")])
        if name in cells:
            assert spelled([new[name]]) == spelled([old[name]])
        else:
            for row in (new, old):
                with pytest.raises(KeyError) as caught:
                    row[name]
                assert caught.value.args == (name,)


@COMMON_SETTINGS
@given(mapping_pairs(), st.lists(st.sampled_from(NAMES + ("missing",)),
                                 unique=True, max_size=4))
def test_project_merge_and_agrees_with_agree_with_the_legacy_row(pair, wanted):
    left, right = pair
    new_left, new_right = Row(left), Row(right)
    old_left, old_right = _LegacyRow(left), _LegacyRow(right)
    if all(name in left for name in wanted):
        assert same_row(new_left.project(wanted), old_left.project(wanted))
        assert new_left.project(reversed(wanted)) == new_left.project(wanted)
    else:
        messages = []
        for row in (new_left, old_left):
            with pytest.raises(UnknownAttributeError) as caught:
                row.project(wanted)
            messages.append(str(caught.value))
        first_missing = next(name for name in wanted if name not in left)
        assert messages[0] == messages[1] and repr(first_missing) in messages[0]
    # Agreeing rows merge to the union, disagreeing ones to None — alike.
    assert same_row(new_left.merge(new_right), old_left.merge(old_right))
    assert same_row(new_right.merge(new_left), old_right.merge(old_left))
    assert same_row(new_left.merge(new_left), old_left.merge(old_left))
    for size in range(len(wanted) + 1):
        assert new_left.agrees_with(new_right, wanted[:size]) \
            is old_left.agrees_with(old_right, wanted[:size])


# --------------------------------------------------------------------------- #
# What only the new layout has to get right
# --------------------------------------------------------------------------- #
@COMMON_SETTINGS
@given(st.lists(st.sampled_from(VALUES), max_size=4), st.data())
def test_equal_cells_over_different_attribute_sets_are_unequal_rows(cells, data):
    subsets = st.lists(st.sampled_from(NAMES), unique=True,
                       min_size=len(cells), max_size=len(cells))
    names, others = data.draw(subsets), data.draw(subsets)
    left = Row(dict(zip(sorted_nodes(names), cells)))
    right = Row(dict(zip(sorted_nodes(others), cells)))
    assert hash(left) == hash(right)                  # the hash is the cells' alone
    same_attributes = frozenset(names) == frozenset(others)
    assert (left == right) is same_attributes
    assert len({left, right}) == (1 if same_attributes else 2)
    assert (left._schema is right._schema) is same_attributes


@COMMON_SETTINGS
@given(mappings)
def test_pickle_and_copy_round_trip_onto_the_local_schema(cells):
    row = Row(cells)
    clones = [pickle.loads(pickle.dumps(row, protocol))
              for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    clones += [copy.copy(row), copy.deepcopy(row)]
    assert pickle.HIGHEST_PROTOCOL >= 5
    for clone in clones:
        assert clone is not row
        assert clone == row and row == clone
        assert hash(clone) == hash(row)
        assert clone in {row} and row in {clone}
        assert repr(clone) == repr(row)
        assert clone._schema is row._schema


def test_a_pickled_payload_spells_the_attribute_names_once():
    rows = [Row({"left-attribute": index, "right-attribute": str(index)})
            for index in range(50)]
    payload = pickle.dumps(rows, pickle.HIGHEST_PROTOCOL)
    assert payload.count(b"left-attribute") == 1
    assert payload.count(b"right-attribute") == 1
    assert pickle.loads(payload) == rows


def test_a_row_pickled_under_another_canonical_order_is_re_sorted():
    # What a sender whose sort rule differs would ship; never trusted blindly.
    assert _rebuild_row(("b", "a"), (2, 1)) == Row({"a": 1, "b": 2})
    assert tuple(_rebuild_row(("b", "a"), (2, 1))) == ("a", "b")


@COMMON_SETTINGS
@given(mappings)
def test_equality_does_not_depend_on_schema_identity(cells):
    interned = Row(cells)
    duplicate_schema = _RowSchema(sorted_nodes(cells))
    assert duplicate_schema is not interned._schema
    duplicate = Row._from_values(duplicate_schema, interned._values)
    assert duplicate == interned and interned == duplicate
    assert hash(duplicate) == hash(interned)
    assert duplicate in {interned} and interned in {duplicate}
    assert duplicate == cells and repr(duplicate) == repr(interned)
    assert all(duplicate[name] is interned[name] for name in cells)


def test_an_unhashable_cell_raises_when_hashed_not_when_built():
    row = Row({"a": [1, 2], "b": 1})
    assert row["a"] == [1, 2] and row == {"a": [1, 2], "b": 1}
    with pytest.raises(TypeError):
        hash(row)


_race_serial = itertools.count()


def test_threads_racing_on_never_seen_attribute_sets_dedupe():
    """8 threads intern the same new attribute sets at once; one row per value tuple."""
    run = next(_race_serial)
    attribute_sets = [(f"race{run}-{index}-x", f"race{run}-{index}-y")
                      for index in range(200)]
    cells = [(value, -value) for value in range(5)]
    workers = 8
    barrier = threading.Barrier(workers)
    built = [[] for _ in range(workers)]

    def build(mine):
        barrier.wait(timeout=30)
        for x, y in attribute_sets:
            mine.extend(Row({y: second, x: first}) for first, second in cells)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(mine,)) for mine in built]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert all(len(mine) == len(attribute_sets) * len(cells) for mine in built)
    everything = frozenset(itertools.chain.from_iterable(built))
    assert len(everything) == len(attribute_sets) * len(cells)
    assert everything == frozenset(built[0])
    # setdefault is atomic: the race leaves one schema per attribute set.
    assert len({id(row._schema) for row in itertools.chain.from_iterable(built)}) \
        == len(attribute_sets)
