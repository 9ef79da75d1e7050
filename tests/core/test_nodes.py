"""Unit tests for repro.core.nodes."""

from __future__ import annotations

import pytest

from repro.core.nodes import (
    as_node_set,
    edge_sort_key,
    format_edge_set,
    format_node_set,
    is_subset_of_any,
    maximal_sets,
    minimal_sets,
    node_sets_equal,
    node_sort_key,
    parse_compact_nodes,
    powerset,
    sorted_nodes,
    symmetric_difference_size,
)


class TestAsNodeSet:
    def test_iterable_becomes_frozenset(self):
        assert as_node_set(["A", "B"]) == frozenset({"A", "B"})

    def test_frozenset_passthrough(self):
        original = frozenset({"A"})
        assert as_node_set(original) is original

    def test_single_string_is_one_node(self):
        assert as_node_set("ABC") == frozenset({"ABC"})


class TestParseCompactNodes:
    def test_single_letters(self):
        assert parse_compact_nodes("ABC") == frozenset({"A", "B", "C"})

    def test_comma_separated_long_names(self):
        assert parse_compact_nodes("Student, Course") == frozenset({"Student", "Course"})

    def test_whitespace_separated(self):
        assert parse_compact_nodes("A B C") == frozenset({"A", "B", "C"})

    def test_single_long_token_is_exploded_per_letter_only_without_separators(self):
        # "AB" with no separators uses the compact convention.
        assert parse_compact_nodes("AB") == frozenset({"A", "B"})


class TestSorting:
    def test_sorted_nodes_is_deterministic(self):
        assert sorted_nodes({"B", "A", "C"}) == ("A", "B", "C")

    def test_sorted_nodes_mixed_types(self):
        result = sorted_nodes({1, "A", 2})
        assert set(result) == {1, 2, "A"}
        assert result == sorted_nodes({2, "A", 1})

    def test_node_sort_key_orders_by_type_then_value(self):
        assert node_sort_key("A") < node_sort_key("B")

    def test_edge_sort_key_orders_string_edges_as_sorted_node_tuples(self):
        edges = [frozenset(edge) for edge in ("AB", "A", "BC", "ABD", "C", "AC", "")]
        assert sorted(edges, key=edge_sort_key) \
            == sorted(edges, key=lambda edge: sorted_nodes(edge))

    def test_edge_sort_key_orders_mixed_node_types(self):
        edges = [frozenset({1, "b"}), frozenset({"b", "c"}), frozenset({2, 10}),
                 frozenset({"a"}), frozenset({True, "x"})]
        ordered = sorted(edges, key=edge_sort_key)
        assert ordered == sorted(reversed(edges), key=edge_sort_key)
        # Type name first, then the repr: bool < int < str, and 10 before 2.
        assert ordered[0] == frozenset({True, "x"})
        assert ordered.index(frozenset({2, 10})) < ordered.index(frozenset({"a"}))


class TestFormatting:
    def test_format_node_set(self):
        assert format_node_set({"B", "A"}) == "{A, B}"

    def test_format_empty_set(self):
        assert format_node_set(frozenset()) == "{}"

    def test_format_edge_set(self):
        rendered = format_edge_set([{"B", "A"}, {"C"}])
        assert rendered == "{{A, B}, {C}}"


class TestFamilies:
    def test_node_sets_equal_ignores_order_and_type(self):
        assert node_sets_equal([("A", "B")], [{"B", "A"}])

    def test_node_sets_equal_detects_difference(self):
        assert not node_sets_equal([{"A"}], [{"B"}])

    def test_is_subset_of_any(self):
        family = [{"A", "B"}, {"C"}]
        assert is_subset_of_any({"A"}, family)
        assert not is_subset_of_any({"D"}, family)

    def test_is_subset_of_any_proper(self):
        family = [{"A", "B"}]
        assert not is_subset_of_any({"A", "B"}, family, proper=True)
        assert is_subset_of_any({"A"}, family, proper=True)

    def test_maximal_sets_drop_subsets_and_duplicates(self):
        family = [{"A"}, {"A", "B"}, {"A", "B"}, {"C"}]
        assert set(maximal_sets(family)) == {frozenset({"A", "B"}), frozenset({"C"})}

    def test_minimal_sets(self):
        family = [{"A"}, {"A", "B"}, {"C"}]
        assert set(minimal_sets(family)) == {frozenset({"A"}), frozenset({"C"})}

    def test_maximal_sets_of_empty_family(self):
        assert maximal_sets([]) == ()


class TestPowerset:
    def test_sizes(self):
        assert len(powerset({"A", "B", "C"})) == 8

    def test_exclude_empty(self):
        assert len(powerset({"A", "B"}, include_empty=False)) == 3

    def test_max_size(self):
        subsets = powerset({"A", "B", "C"}, max_size=1)
        assert all(len(s) <= 1 for s in subsets)
        assert len(subsets) == 4  # empty set + three singletons

    def test_ordering_smallest_first(self):
        subsets = powerset({"A", "B"})
        assert subsets[0] == frozenset()
        assert len(subsets[-1]) == 2


def test_symmetric_difference_size():
    assert symmetric_difference_size({"A", "B"}, {"B", "C"}) == 2
    assert symmetric_difference_size({"A"}, {"A"}) == 0
