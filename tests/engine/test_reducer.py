"""Unit tests for the engine's compiled full reducers."""

from __future__ import annotations

import pytest

from repro.core.join_tree import build_join_tree
from repro.engine.columnar import block_for
from repro.engine.reducer import FullReducer, ReductionError, ReductionTrace
from repro.generators import generate_database, university_schema

from properties.strategies import semijoin_stable


@pytest.fixture
def dirty_db():
    return generate_database(university_schema(), universe_rows=20, domain_size=5,
                             dangling_fraction=0.6, seed=11)


@pytest.fixture
def reducer(dirty_db):
    tree = build_join_tree(dirty_db.hypergraph)
    assert tree is not None
    return FullReducer.from_join_tree(tree)


def vertex_map(database):
    return {relation.schema.attribute_set: block_for(relation)
            for relation in database.relations()}


class TestCompilation:
    def test_two_passes_over_the_tree(self, reducer):
        vertices = len(reducer.rooted.tree.vertices)
        assert len(reducer) == 2 * (vertices - 1)
        directions = [step.direction for step in reducer.steps]
        assert directions == ["up"] * (vertices - 1) + ["down"] * (vertices - 1)

    def test_steps_record_their_separators(self, reducer):
        for step in reducer.steps:
            assert step.separator == step.target & step.source

    def test_describe_lists_every_step(self, reducer):
        text = reducer.describe()
        assert "⋉" in text
        assert len(text.splitlines()) == len(reducer)


class TestRun:
    def test_removes_all_dangling_tuples(self, dirty_db, reducer):
        assert dirty_db.dangling_tuple_count() > 0
        reduced = reducer.run_blocks(vertex_map(dirty_db))
        rebuilt = dirty_db
        for relation in dirty_db.relations():
            rebuilt = rebuilt.with_relation(
                reduced[relation.schema.attribute_set].to_relation(relation.name))
        assert rebuilt.dangling_tuple_count() == 0

    def test_trace_accounts_for_removed_rows(self, dirty_db, reducer):
        trace = ReductionTrace()
        reduced = reducer.run_blocks(vertex_map(dirty_db), trace=trace)
        assert trace.steps_run == len(reducer)
        assert trace.rows_removed == sum(trace.sizes_before) - sum(trace.sizes_after)
        assert trace.rows_removed > 0
        assert 0 < trace.reduction_ratio < 1
        assert sum(len(r) for r in reduced.values()) == sum(trace.sizes_after)

    def test_clean_database_is_a_fixpoint(self):
        db = generate_database(university_schema(), universe_rows=15, seed=2)
        tree = build_join_tree(db.hypergraph)
        reducer = FullReducer.from_join_tree(tree)
        trace = ReductionTrace()
        reduced = reducer.run_blocks(vertex_map(db), trace=trace)
        assert trace.rows_removed == 0
        for relation in db.relations():
            # The engine returns the input block itself when nothing shrinks.
            assert reduced[relation.schema.attribute_set] is block_for(relation)

    def test_default_check_hook_passes_after_reduction(self, dirty_db, reducer):
        reduced = reducer.run_blocks(vertex_map(dirty_db))
        assert semijoin_stable(reduced, reducer.rooted)

    def test_unreduced_input_fails_the_check(self, dirty_db, reducer):
        assert not semijoin_stable(vertex_map(dirty_db), reducer.rooted)
        # A program with no steps leaves the input as it is: the default
        # check's proof pairs must reject it.
        with pytest.raises(ReductionError):
            FullReducer(rooted=reducer.rooted, steps=()).run_blocks(vertex_map(dirty_db))

    def test_rejecting_hook_raises(self, dirty_db, reducer):
        with pytest.raises(ReductionError):
            reducer.run_blocks(vertex_map(dirty_db), check_hook=lambda relations, rooted: False)

    def test_custom_hook_receives_reduced_map(self, dirty_db, reducer):
        seen = {}

        def hook(relations, rooted):
            seen["vertices"] = set(relations)
            return True

        reducer.run_blocks(vertex_map(dirty_db), check_hook=hook)
        assert seen["vertices"] == set(reducer.rooted.tree.vertices)


class TestShortCircuit:
    def test_empty_vertex_empties_its_component_and_skips_steps(self, dirty_db, reducer):
        emptied = dirty_db.with_relation(dirty_db["ENROL"].with_rows([]))
        trace = ReductionTrace()
        reduced = reducer.run_blocks(vertex_map(emptied), trace=trace)
        # The university schema is connected: emptiness wipes every vertex
        # without running a single semijoin step.
        assert all(len(block) == 0 for block in reduced.values())
        assert trace.steps_run == 0
        assert trace.rows_removed == sum(trace.sizes_before)


class TestCostOrder:
    def test_reordered_program_has_same_steps_per_pass(self, reducer):
        estimates = {vertex: index
                     for index, vertex in enumerate(reducer.rooted.tree.vertices)}
        reordered = reducer.with_cost_order(estimates)
        assert len(reordered) == len(reducer)
        for program in (reducer, reordered):
            ups = sum(1 for step in program.steps if step.direction == "up")
            assert ups == len(program) - ups
        assert {(step.target, step.source) for step in reordered.steps} \
            == {(step.target, step.source) for step in reducer.steps}

    def test_siblings_run_smallest_estimated_first(self, reducer):
        rooted = reducer.rooted
        parent = next(vertex for vertex, _ in rooted.order
                      if len(rooted.children_of(vertex)) >= 2)
        children = rooted.children_of(parent)
        # Give the canonically-last child the smallest estimate.
        estimates = {child: len(children) - index
                     for index, child in enumerate(children)}
        reordered = reducer.with_cost_order(estimates)
        up_sources = [step.source for step in reordered.steps
                      if step.direction == "up" and step.target == parent]
        assert up_sources == sorted(children, key=lambda child: estimates[child])

    def test_reordered_program_still_fully_reduces(self, dirty_db, reducer):
        estimates = {vertex: -index  # adversarial: reverse the canonical order
                     for index, vertex in enumerate(reducer.rooted.tree.vertices)}
        reordered = reducer.with_cost_order(estimates)
        reduced = reordered.run_blocks(vertex_map(dirty_db))
        assert semijoin_stable(reduced, reordered.rooted)

    def test_missing_estimates_fall_back_to_canonical_order(self, reducer):
        reordered = reducer.with_cost_order({})
        up_targets = [step.target for step in reordered.steps
                      if step.direction == "up"]
        original_up_targets = [step.target for step in reducer.steps
                               if step.direction == "up"]
        assert sorted(map(sorted, up_targets)) == sorted(map(sorted, original_up_targets))
