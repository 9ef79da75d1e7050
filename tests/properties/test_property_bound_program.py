"""Property-based: a bound prepared query replays a compiled fold, answers unchanged.

A prepared query checks a database's schema once, when it binds it, and the
fold runs from a program compiled once per plan and output set
(:func:`~repro.engine.columnar.executor.fold_program`).  Four claims, on
:mod:`strategies`' random skewed acyclic and cyclic databases, under both
column backends, adaptive and static, with random output subsets:

* **answers** — every execute answers exactly what :mod:`repro.relational`
  answers, byte for byte;
* **replay** — a warm execute's intermediate sizes, semijoin steps, removed
  rows, reduced sizes and result column order equal those of the first
  (compiling) execute and of a fresh session's;
* **the program is the loop** — replaying the compiled program runs the very
  join kernels, on the very inputs, that the per-run fold loop it replaced
  ran (kept below as an oracle), including over projected cluster blocks;
* **threads** — two threads warm-executing one prepared query get equal
  answers.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, FrozenSet, List, Optional

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from properties.strategies import skewed_acyclic_databases, skewed_cyclic_databases

from repro.core.nodes import sorted_nodes
from repro.engine import EngineSession, QueryPlanner, annotate_plan
from repro.engine.columnar import (
    available_column_backends,
    catalog_from_blocks,
    fold_join_tree,
    fold_program,
    natural_join_blocks,
    resolve_column_backend,
    use_column_backend,
    vertex_blocks,
)
from repro.engine.cyclic.quotient import materialise_cluster_blocks
from repro.relational import naive_join, yannakakis_join
from repro.telemetry import Tracer, use_tracer

BACKENDS = available_column_backends()

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def oracle(database, outputs):
    """The ``repro.relational`` answer (naive join when the schema is cyclic)."""
    if database.schema.is_acyclic():
        return yannakakis_join(database, outputs).relation
    return naive_join(database, outputs)[0]


def assert_byte_identical(relation, expected, name: str) -> None:
    assert relation.name == name
    assert relation.attributes == tuple(sorted_nodes(expected.schema.attribute_set))
    assert relation.rows == expected.rows
    assert sorted(map(repr, relation.rows)) == sorted(map(repr, expected.rows))


@st.composite
def queries(draw):
    """A database plus outputs (``None`` = all, ``()`` = 0-ary)."""
    database = draw(st.one_of(skewed_acyclic_databases(), skewed_cyclic_databases()))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    attributes = sorted_nodes(database.schema.attributes)
    width = rng.choice((None, 0, 1, 2, 3))
    if width is None:
        return database, None
    return database, tuple(rng.sample(attributes, min(width, len(attributes))))


def accounting(result):
    """The per-run figures a replayed program must reproduce."""
    statistics = result.statistics
    return (statistics.intermediate_sizes, statistics.semijoin_steps,
            statistics.rows_removed_by_reduction, statistics.reduced_sizes,
            result.decoded().attributes)


@SETTINGS
@given(query=queries(), backend=st.sampled_from(BACKENDS), adaptive=st.booleans())
def test_warm_executes_replay_the_first_and_a_fresh_sessions(query, backend,
                                                             adaptive):
    database, outputs = query
    expected = oracle(database, outputs)
    prepared = EngineSession(column_backend=backend,
                             adaptive=adaptive).prepare(database, outputs)
    first = prepared.execute(database)
    assert_byte_identical(first.decoded(), expected, prepared.name)
    for _ in range(2):
        warm = prepared.execute(database)
        assert_byte_identical(warm.decoded(), expected, prepared.name)
        assert accounting(warm) == accounting(first)
    fresh = EngineSession(column_backend=backend,
                          adaptive=adaptive).prepare(database, outputs)
    assert accounting(fresh.execute(database)) == accounting(first)


# --------------------------------------------------------------------------- #
# The program is the loop
# --------------------------------------------------------------------------- #
def reference_fold(rooted, reduced, wanted: Optional[FrozenSet], order_children):
    """The per-run fold loop the compiled program replaced, kept as an oracle."""
    intermediates: List[int] = []
    partial: Dict = {}
    for vertex, parent in rooted.leaf_to_root():
        current = reduced[vertex]
        children = order_children(vertex, rooted.children_of(vertex))
        final_keep = None
        if wanted is not None:
            subtree_attributes = set(vertex)
            for child in children:
                subtree_attributes.update(partial[child].attribute_set)
            final_keep = frozenset(subtree_attributes) & wanted
            if parent is not None:
                final_keep |= frozenset(vertex) & frozenset(parent)
        child_separators = [frozenset(vertex) & frozenset(child) for child in children]
        for index, child in enumerate(children):
            keep = None
            if final_keep is not None:
                keep = final_keep.union(*child_separators[index + 1:])
            current = natural_join_blocks(current, partial[child], project_onto=keep)
            intermediates.append(len(current))
        if final_keep is not None and final_keep != current.attribute_set:
            current = current.project_onto(final_keep).distinct()
        partial[vertex] = current
    roots = rooted.roots
    result = partial[roots[0]]
    for other_root in roots[1:]:
        keep = None
        if wanted is not None:
            keep = (result.attribute_set | partial[other_root].attribute_set) & wanted
        result = natural_join_blocks(result, partial[other_root], project_onto=keep)
        intermediates.append(len(result))
    if wanted is not None and wanted & result.attribute_set != result.attribute_set:
        result = result.project_onto(wanted).distinct()
    return result.with_column_order(sorted_nodes(result.attributes)), intermediates


def _plans(database, wanted):
    """(plan, vertex blocks) pairs: static and annotated, acyclic or quotient."""
    planner = QueryPlanner()
    hypergraph = database.schema.to_hypergraph()
    relations = database.relations()
    if database.schema.is_acyclic():
        structure = planner.plan_for(hypergraph)
        blocks = vertex_blocks(relations, structure.vertices)
        annotated = planner.annotate(hypergraph, database.statistics_catalog(),
                                     output_attributes=wanted)
        return [(structure, blocks),
                (annotated, vertex_blocks(relations, annotated.vertices))]
    # The cyclic quotient: projected cluster blocks whose attributes are only
    # the part of their vertex the cluster exports.
    cyclic = planner.cyclic_plan_for(hypergraph)
    structure = cyclic.inner
    materialised = materialise_cluster_blocks(cyclic.cover, relations, wanted=wanted)
    blocks = vertex_blocks(materialised.blocks, structure.vertices,
                           materialised.schemes)
    annotated = annotate_plan(
        structure, catalog_from_blocks(materialised.blocks, materialised.schemes),
        output_attributes=wanted)
    return [(structure, blocks), (annotated, blocks)]


def _joins(tracer: Tracer):
    return [(record["attributes"]["left_rows"], record["attributes"]["right_rows"],
             record["attributes"]["output_rows"])
            for record in tracer.records if record["name"] == "kernel:join"]


@SETTINGS
@given(query=queries(), backend=st.sampled_from(BACKENDS))
def test_the_compiled_program_runs_the_loops_kernels(query, backend):
    database, outputs = query
    wanted = frozenset(outputs) if outputs is not None else None
    with use_column_backend(resolve_column_backend(backend)):
        for plan, blocks in _plans(database, wanted):
            reduced = plan.reducer.run_blocks(blocks)
            order = getattr(plan, "order_children",
                            lambda vertex, children: children)
            replayed, looped = Tracer(), Tracer()
            with use_tracer(looped):
                expected, expected_sizes = reference_fold(plan.rooted, reduced,
                                                          wanted, order)
            program = fold_program(plan, wanted)
            assert fold_program(plan, wanted) is program
            with use_tracer(replayed):
                result, sizes = fold_join_tree(program, reduced)
            assert sizes == expected_sizes
            assert _joins(replayed) == _joins(looped)
            assert result.attributes == expected.attributes == program.columns
            assert result.to_relation() == expected.to_relation()


# --------------------------------------------------------------------------- #
# Threads
# --------------------------------------------------------------------------- #
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=queries(), adaptive=st.booleans())
def test_two_threads_warm_execute_to_equal_answers(query, adaptive):
    database, outputs = query
    prepared = EngineSession(adaptive=adaptive).prepare(database, outputs)
    first = prepared.execute(database)
    expected = first.decoded()
    barrier = threading.Barrier(2)
    answers, errors = [[], []], []

    def run(slot: int) -> None:
        try:
            barrier.wait()
            for _ in range(10):
                result = prepared.execute(database)
                answers[slot].append((result.decoded(), accounting(result)))
        except BaseException as error:  # surfaced below
            errors.append(error)

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for relation, figures in answers[0] + answers[1]:
        assert relation == expected
        assert relation.attributes == expected.attributes
        assert figures == accounting(first)
    assert_byte_identical(expected, oracle(database, outputs), prepared.name)
