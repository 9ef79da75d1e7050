"""Property-based: a bound prepared query replays one compiled program, answers unchanged.

A prepared query checks a database's schema once, when it binds it, and the
physical run — the full reducer's two passes, the optional
proof-of-reduction pairs, then the bottom-up fold — replays a
:class:`~repro.engine.columnar.executor.BoundProgram` compiled once per plan
and output set (:func:`~repro.engine.columnar.executor.bound_program`).  The
claims, on :mod:`strategies`' random skewed acyclic and cyclic databases,
and on databases over disjoint chains (whose fold merges tree roots), under
both column backends, adaptive and static, with random output subsets:

* **answers** — every execute answers exactly what :mod:`repro.relational`
  answers, byte for byte;
* **replay** — a warm execute's intermediate sizes, semijoin steps, removed
  rows, reduced sizes and result column order equal those of the first
  (compiling) execute and of a fresh session's;
* **the program is the loop** — the reducer program leaves the very
  selections, accounting and emptied components the per-run reducer loop it
  replaced left (kept below as an oracle, with the per-run proof-of-reduction
  check), and files and reads the very memo entries that loop's kernels do;
  the fold program runs the very join kernels, on the very inputs, that the
  per-run fold loop ran — including over projected cluster blocks;
* **nothing is re-derived** — a replay on a binding whose first execute
  timed out entering reduce runs with the kernels' separator,
  shared-attribute and generation helpers, the process-wide cache
  snapshot, the cluster-width property and cluster materialisation all
  raising, and links its fold and checks its blocks' generation once (an
  adaptive binding compiles its own annotation's program once); a warm
  execute, served from the binding's memo, runs with all of them raising;
* **same observable run** — the first execute on a new binding over the
  same relations moves every :func:`column_cache_info` counter and records
  the same ``reduce`` / ``fold`` / ``kernel:*`` spans (names, order,
  parents, attributes) as the oracle loops over the same blocks, plus
  exactly its per-binding work; after :func:`clear_column_caches` a warm
  binding runs like a fresh session's first execute;
* **one link per binding** — databases whose relations differ only in name
  and column order share one plan, and each binding's fold is linked to its
  own inputs;
* **threads** — two threads warm-executing one prepared query get equal
  answers, and concurrent executes count only their own block lookups;
* **the benchmark's replay** — ``FullReducer.run_blocks(blocks, trace=,
  check_hook=)`` and ``run_columnar_plan(...) -> (block, intermediates,
  {"reduce", "fold"})``, which the traced benchmark pass calls directly,
  keep answering.
"""

from __future__ import annotations

import random
import sys
import threading
from typing import Dict, FrozenSet, List, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from properties.strategies import (
    deadline_expiring_entering,
    fresh_block,
    rebound,
    semijoin_stable,
    skewed_acyclic_databases,
    skewed_cyclic_databases,
)

from repro import Hypergraph
from repro.core.nodes import format_node_set, sorted_nodes
from repro.engine import (
    EdgeCluster,
    EngineSession,
    FullReducer,
    QueryPlanner,
    ReductionError,
    ReductionTrace,
    annotate_plan,
    clear_column_caches,
    column_cache_info,
)
from repro.engine import yannakakis as yannakakis_module
from repro.engine.columnar import (
    available_column_backends,
    bound_program,
    catalog_from_blocks,
    natural_join_blocks,
    resolve_column_backend,
    run_columnar_plan,
    semijoin_blocks,
    use_column_backend,
    vertex_blocks,
)
from repro.engine import columnar as columnar_package
from repro.engine.columnar import block as block_module
from repro.engine.columnar import executor as executor_module
from repro.engine.columnar import kernels as kernels_module
from repro.engine.cyclic import executor as cyclic_executor_module
from repro.engine.cyclic.quotient import materialise_cluster_blocks
from repro.exceptions import ExecutionTimeoutError
from repro.generators import generate_database
from repro.relational import (Database, DatabaseSchema, Relation, RelationSchema,
                              naive_join, yannakakis_join)
from repro.service.pool import ExecutionPool
from repro.telemetry import Tracer, use_tracer
from repro.telemetry.tracing import current_tracer

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
def disconnected_databases(draw):
    """A database over two or three disjoint chains: the fold merges tree roots."""
    lengths = draw(st.lists(st.integers(min_value=1, max_value=3),
                            min_size=2, max_size=3))
    edges = []
    for component, length in enumerate(lengths):
        names = [f"D{component}_{index}" for index in range(length + 1)]
        edges += [{names[index], names[index + 1]} for index in range(length)]
    schema = DatabaseSchema.from_hypergraph(Hypergraph(edges))
    return generate_database(schema, universe_rows=5, domain_size=3,
                             dangling_fraction=draw(st.sampled_from([0.0, 0.4])),
                             seed=draw(st.integers(min_value=0, max_value=100)))


@st.composite
def queries(draw):
    """A database plus outputs (``None`` = all, ``()`` = 0-ary)."""
    database = draw(st.one_of(skewed_acyclic_databases(), skewed_cyclic_databases(),
                              disconnected_databases()))
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


def copy_of(database: Database) -> Database:
    """A value-equal database the engine has never seen (new relation objects)."""
    return Database(database.schema, {
        relation.name: Relation.from_valid_rows(relation.schema, relation.rows)
        for relation in database.relations()})


def renamed_copy(database: Database) -> Database:
    """The same data under other relation names, each with its columns reversed."""
    relations = {}
    for relation in database.relations():
        schema = RelationSchema(f"X{relation.name}", relation.attributes[::-1])
        relations[schema.name] = Relation(schema, [
            {attribute: row[attribute] for attribute in schema.attributes}
            for row in relation.rows])
    return Database(DatabaseSchema([relation.schema for relation in relations.values()]),
                    relations)


def fresh_storages(blocks):
    """The same vertex blocks over storages no kernel has touched yet."""
    return {vertex: fresh_block(block) for vertex, block in blocks.items()}


def counter_delta(before, after):
    return {name: after[name] - before[name] for name in after}


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
# The oracles: the per-run loops the compiled program replaced
# --------------------------------------------------------------------------- #
def reference_verify(blocks, rooted) -> bool:
    """The per-run proof-of-reduction check, kept as an oracle."""
    for vertex, parent in rooted.order:
        if parent is None:
            continue
        child_block = blocks[vertex]
        parent_block = blocks[parent]
        if semijoin_blocks(parent_block, child_block) is not parent_block:
            return False
        if semijoin_blocks(child_block, parent_block) is not child_block:
            return False
    return True


def reference_reduce(reducer, blocks, *, trace=None, check_hook=None):
    """The per-run reducer loop the compiled program replaced, kept as an oracle."""
    hook = check_hook if check_hook is not None else reference_verify
    span = current_tracer().span("reduce")
    with span:
        current = dict(blocks)
        sizes_before = tuple(len(current[vertex]) for vertex, _ in reducer.rooted.order)
        component_of: Dict = {}
        for vertex, parent in reducer.rooted.order:
            component_of[vertex] = component_of[parent] if parent is not None else vertex
        dead_components: set = set()

        def kill_component(component) -> int:
            dead_components.add(component)
            emptied = 0
            for vertex, owner in component_of.items():
                if owner is component and len(current[vertex]):
                    emptied += len(current[vertex])
                    current[vertex] = current[vertex].empty()
            return emptied

        removed = 0
        steps_run = 0
        for vertex, _parent in reducer.rooted.order:
            if len(current[vertex]) == 0:
                removed += kill_component(component_of[vertex])
        for step in reducer.steps:
            if component_of[step.target] in dead_components:
                continue
            target = current[step.target]
            reduced = semijoin_blocks(target, current[step.source], on=step.on)
            steps_run += 1
            if reduced is not target:
                removed += len(target) - len(reduced)
                current[step.target] = reduced
                if len(reduced) == 0:
                    removed += kill_component(component_of[step.target])
        sizes_after = tuple(len(current[vertex]) for vertex, _ in reducer.rooted.order)
        if trace is not None:
            trace.steps_run += steps_run
            trace.rows_removed += removed
            trace.sizes_before = sizes_before
            trace.sizes_after = sizes_after
        if span.is_recording:
            span.set("vertices", [format_node_set(vertex)
                                  for vertex, _ in reducer.rooted.order])
            span.set("sizes_before", list(sizes_before))
            span.set("sizes_after", list(sizes_after))
            span.set("rows_removed", removed)
            span.set("steps", steps_run)
        if not hook(current, reducer.rooted):
            raise ReductionError("proof-of-reduction check failed")
        return current


def reference_fold(rooted, reduced, wanted: Optional[FrozenSet], order_children):
    """The per-run fold loop the compiled program replaced, kept as an oracle."""
    span = current_tracer().span("fold")
    with span:
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
            child_separators = [frozenset(vertex) & frozenset(child)
                                for child in children]
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
        result = result.with_column_order(sorted_nodes(result.attributes))
        if span.is_recording:
            span.set("intermediates", list(intermediates))
            span.set("output_rows", len(result))
        return result, intermediates


def _order(plan):
    return getattr(plan, "order_children", lambda vertex, children: children)


def _skip_check(blocks, rooted) -> bool:
    return True


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


def _trace_figures(trace: ReductionTrace):
    return (trace.steps_run, trace.rows_removed, trace.sizes_before, trace.sizes_after)


def _selections(reduced, vertices):
    return [(reduced[vertex].storage_token(), reduced[vertex].selection_bytes(),
             reduced[vertex].attributes, reduced[vertex].name) for vertex in vertices]


# --------------------------------------------------------------------------- #
# The program is the loop
# --------------------------------------------------------------------------- #
@SETTINGS
@given(query=queries(), backend=st.sampled_from(BACKENDS), check=st.booleans())
def test_the_reducer_program_is_the_reducer_loop(query, backend, check):
    database, outputs = query
    wanted = frozenset(outputs) if outputs is not None else None
    hook = None if check else _skip_check
    with use_column_backend(resolve_column_backend(backend)):
        for plan, blocks in _plans(database, wanted):
            reducer, vertices = plan.reducer, list(blocks)
            for loop_first in (True, False):
                # Whichever runs first fills the memo on fresh storages; the
                # second must be answered from it entirely — same keys.
                inputs = fresh_storages(blocks)
                runs = [("loop", lambda trace: reference_reduce(
                            reducer, inputs, trace=trace, check_hook=hook)),
                        ("program", lambda trace: reducer.run_blocks(
                            inputs, trace=trace, check_hook=hook))]
                if not loop_first:
                    runs.reverse()
                outcome = {}
                for label, run in runs:
                    trace = ReductionTrace()
                    before = column_cache_info()
                    reduced = run(trace)
                    outcome[label] = (reduced, trace,
                                      counter_delta(before, column_cache_info()))
                loop, loop_trace, _ = outcome["loop"]
                program, program_trace, _ = outcome["program"]
                assert _selections(program, vertices) == _selections(loop, vertices)
                assert _trace_figures(program_trace) == _trace_figures(loop_trace)
                first, second = (outcome[label][2] for label, _ in runs)
                assert second["keyset_misses"] == 0
                assert second["selection_keys"] == 0
                assert second["keyset_hits"] == \
                    first["keyset_hits"] + first["keyset_misses"]


@SETTINGS
@given(query=queries(), backend=st.sampled_from(BACKENDS))
def test_the_compiled_program_runs_the_loops_kernels(query, backend):
    database, outputs = query
    wanted = frozenset(outputs) if outputs is not None else None
    with use_column_backend(resolve_column_backend(backend)):
        for plan, blocks in _plans(database, wanted):
            reduced = reference_reduce(plan.reducer, blocks)
            replayed, looped = Tracer(), Tracer()
            with use_tracer(looped):
                expected, expected_sizes = reference_fold(plan.rooted, reduced,
                                                          wanted, _order(plan))
            program = bound_program(plan, wanted)
            assert bound_program(plan, wanted) is program
            # Over reduced blocks the program's reducer steps are fixpoints,
            # so its fold starts from exactly the loop's inputs.
            with use_tracer(replayed):
                result, sizes, phases = run_columnar_plan(plan, None, reduced, wanted)
            assert set(phases) == {"reduce", "fold"}
            assert list(sizes) == expected_sizes
            assert _joins(replayed) == _joins(looped)
            assert result.attributes == expected.attributes == program.fold.columns
            assert result.to_relation() == expected.to_relation()


@SETTINGS
@given(query=queries(), backend=st.sampled_from(BACKENDS))
def test_the_programs_proof_pairs_are_the_loops_check(query, backend):
    database, outputs = query
    wanted = frozenset(outputs) if outputs is not None else None
    with use_column_backend(resolve_column_backend(backend)):
        for plan, blocks in _plans(database, wanted):
            reduced = reference_reduce(plan.reducer, blocks, check_hook=_skip_check)
            # A program without steps runs only the proof pairs.
            check_only = FullReducer(rooted=plan.rooted, steps=())
            for candidate in (blocks, reduced):
                inputs = fresh_storages(candidate)
                expected = reference_verify(inputs, plan.rooted)
                assert semijoin_stable(inputs, plan.rooted) is expected
                if expected:
                    assert check_only.run_blocks(inputs).keys() == inputs.keys()
                    assert plan.reducer.run_blocks(inputs).keys() == inputs.keys()
                else:
                    with pytest.raises(ReductionError):
                        check_only.run_blocks(inputs)
            assert semijoin_stable(reduced, plan.rooted)
            with pytest.raises(ReductionError):
                plan.reducer.run_blocks(blocks, check_hook=lambda blocks, rooted: False)


# --------------------------------------------------------------------------- #
# A warm execute re-derives nothing and is the oracle's run
# --------------------------------------------------------------------------- #
def _forbidden(*args, **kwargs):
    raise AssertionError("a warm execute re-derived per-step structure")


def _forbid_per_step_derivation(patch: pytest.MonkeyPatch,
                                calls: Optional[Dict[str, int]] = None) -> None:
    """Make every derivation of per-step structure raise.

    With ``calls``, the executor's per-run helpers — the blocks' generation
    check, the fold's link, and compiling a program — run instead, and
    ``calls`` counts them by name.
    """
    for name in ("_separator", "shared_block_attributes", "check_one_generation"):
        patch.setattr(kernels_module, name, _forbidden)
    for module in (block_module, columnar_package):
        patch.setattr(module, "column_cache_info", _forbidden)
    patch.setattr(yannakakis_module, "column_cache_info", _forbidden, raising=False)
    patch.setattr(EdgeCluster, "width", property(_forbidden))
    patch.setattr(cyclic_executor_module, "materialise_cluster_blocks", _forbidden)
    per_run = [(executor_module, name) for name in
               ("check_one_generation", "_link_fold", "compile_fold_program")]
    per_run.append((executor_module.ReductionProgram, "__init__"))
    for owner, name in per_run:
        patch.setattr(owner, name, _forbidden if calls is None
                      else _counting(getattr(owner, name), name, calls))


def _counting(function, name: str, calls: Dict[str, int]):
    calls[name] = 0

    def counted(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)

    return counted


@SETTINGS
@given(query=queries(), backend=st.sampled_from(BACKENDS), adaptive=st.booleans(),
       check=st.booleans())
def test_warm_executes_derive_nothing_per_step(query, backend, adaptive, check):
    database, outputs = query
    prepared = EngineSession(column_backend=backend, adaptive=adaptive,
                             check_reduction=check).prepare(database, outputs)
    first = prepared.execute(database)
    # A replay: a second binding over the same relations, whose first
    # execute timed out entering reduce.  Its catalog, annotation and (on a
    # cyclic plan) clusters are in place, so its retry replays the program.
    second = rebound(database)
    with deadline_expiring_entering("reduce"), pytest.raises(ExecutionTimeoutError):
        prepared.execute(second)
    with pytest.MonkeyPatch.context() as patch:
        calls: Dict[str, int] = {}
        _forbid_per_step_derivation(patch, calls)
        replay = prepared.execute(second)
        # Once per run: one generation check over the vertex blocks and one
        # link of the fold to their names and column orders.  An adaptive
        # binding compiles the program of its own cost annotation once.
        assert calls == {"check_one_generation": 1, "_link_fold": 1,
                         "compile_fold_program": int(adaptive),
                         "__init__": int(adaptive)}
        assert replay.decoded() == first.decoded()
        assert accounting(replay) == accounting(first)
        assert replay.statistics.index_cache_misses == 0
    # A warm execute is served from the binding's memo: not even that runs.
    with pytest.MonkeyPatch.context() as patch:
        _forbid_per_step_derivation(patch)
        for tracer in (None, Tracer()):
            with use_tracer(tracer):
                warm = prepared.execute(second)
            assert warm.decoded() == first.decoded()
            assert accounting(warm) == accounting(first)
            assert warm.statistics.index_cache_misses == 0


def _oracle_run(prepared, database, result, *, check: bool):
    """Encode, the oracle loops' reduce and fold, and decode over the binding's inputs."""
    binding = prepared._binding_for(database)
    plan = result.plan
    tree_plan = plan if prepared.kind == "acyclic" else plan.inner
    inputs, schemes = database.relations(), None
    if prepared.kind == "cyclic":
        materialised = binding.warm.outcome.clusters.materialised
        inputs, schemes = materialised.blocks, materialised.schemes
    active = result.annotated if result.annotated is not None else tree_plan
    blocks = vertex_blocks(inputs, tree_plan.vertices, schemes)
    reduced = reference_reduce(active.reducer, blocks,
                               check_hook=None if check else _skip_check)
    block, _ = reference_fold(active.rooted, reduced, prepared._wanted, _order(active))
    return block.to_relation(prepared.name)


def _span_forest(tracer: Tracer):
    records = [record for record in tracer.records
               if record["name"] in ("reduce", "fold")
               or record["name"].startswith("kernel:")]
    names = {record["span_id"]: record["name"] for record in tracer.records}
    return sorted((record["start"], record["name"],
                   names.get(record["parent_id"]), record["attributes"])
                  for record in records)


@SETTINGS
@given(query=queries(), backend=st.sampled_from(BACKENDS), adaptive=st.booleans(),
       check=st.booleans())
def test_a_warm_execute_is_the_oracle_loops_run(query, backend, adaptive, check):
    database, outputs = query
    prepared = EngineSession(column_backend=backend, adaptive=adaptive,
                             check_reduction=check).prepare(database, outputs)
    prepared.execute(database)
    # A warm execute on that binding is served from its memo and runs no
    # kernel, so the program replays on a new binding over the same
    # relations, whose blocks' memos the first run filled.  Its catalog and
    # annotation are resolved up front.
    second = rebound(database)
    prepared._binding_for(second)
    observed = {}
    with use_column_backend(resolve_column_backend(backend)):
        for label in ("program", "loop"):
            tracer = Tracer()
            before = column_cache_info()
            with use_tracer(tracer):
                if label == "program":
                    result = prepared.execute(second)
                    answer = result.decoded()
                else:
                    answer = _oracle_run(prepared, second, result, check=check)
            delta = counter_delta(before, column_cache_info())
            forest = [(name, parent, attributes)
                      for _, name, parent, attributes in _span_forest(tracer)
                      if parent != "materialise"]
            observed[label] = (answer, delta, forest)
    program, loop = observed["program"], observed["loop"]
    assert program[0] == loop[0]
    # What a binding's first run adds to the loops' run: it misses the
    # binding's memo, compiles the program of its own cost annotation, and a
    # cyclic run looks up the relations' blocks to materialise its clusters
    # (every intra-cluster join a memo hit, kept out of the forest above).
    extra = {"binding_outcome_misses": 1, "fold_programs": int(adaptive),
             "hits": len(database.relations()) if prepared.kind == "cyclic" else 0}
    assert program[1] == {name: count + extra.get(name, 0)
                          for name, count in loop[1].items()}
    # The oracle opens reduce / fold without the execute root around them.
    strip = [(name, None if parent == "execute" else parent, attributes)
             for name, parent, attributes in program[2]]
    assert strip == loop[2]


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=queries(), adaptive=st.booleans())
def test_a_warm_binding_after_a_cache_clear_runs_like_a_fresh_one(query, adaptive):
    database, outputs = query
    prepared = EngineSession(adaptive=adaptive).prepare(database, outputs)
    first = prepared.execute(database)
    prepared.execute(database)
    try:
        runs = []
        for make in (lambda: prepared,
                     lambda: EngineSession(adaptive=adaptive).prepare(database, outputs)):
            clear_column_caches()
            query_ = make()
            before = column_cache_info()
            result = query_.execute(database)
            runs.append((result, counter_delta(before, column_cache_info())))
        (warm, warm_delta), (fresh, fresh_delta) = runs
        assert warm.decoded() == fresh.decoded() == first.decoded()
        assert accounting(warm) == accounting(fresh) == accounting(first)
        for counter in ("keyset_hits", "keyset_misses", "selection_keys",
                        "relation_misses", "relation_hits"):
            assert warm_delta[counter] == fresh_delta[counter]
        # The program lives on the binding's plan; only a cyclic adaptive
        # binding annotates its re-materialised quotient anew.
        assert warm_delta["fold_programs"] == \
            (prepared.kind == "cyclic" and adaptive)
        # The binding's relations are encoded again, by the run itself.
        assert warm.statistics.index_cache_hits == 0
        assert warm.statistics.index_cache_misses == len(database.relations())
    finally:
        clear_column_caches()


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=queries(), adaptive=st.booleans())
def test_bindings_sharing_a_plan_each_link_the_fold_to_their_own_inputs(query,
                                                                       adaptive):
    """One plan serves every database of its schema fingerprint, whatever the
    relations' names and column orders; each binding links the fold to its own."""
    database, outputs = query
    databases = (database, renamed_copy(database))
    prepared = EngineSession(adaptive=adaptive).prepare(database, outputs)
    expected = {}
    for each in databases:
        fresh = EngineSession(adaptive=adaptive).prepare(each, outputs).execute(each)
        expected[id(each)] = (fresh.block.name, fresh.block.attributes, fresh.decoded())
    for _ in range(2):
        for each in databases:
            result = prepared.execute(each)
            assert (result.block.name, result.block.attributes,
                    result.decoded()) == expected[id(each)]
            assert_byte_identical(result.decoded(), oracle(each, outputs), prepared.name)


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
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert not errors
    for relation, figures in answers[0] + answers[1]:
        assert relation == expected
        assert relation.attributes == expected.attributes
        assert figures == accounting(first)
    assert_byte_identical(expected, oracle(database, outputs), prepared.name)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=queries(), adaptive=st.booleans())
def test_concurrent_executes_count_only_their_own_block_lookups(query, adaptive):
    database, outputs = query
    prepared = EngineSession(adaptive=adaptive).prepare(database, outputs)
    counts = []
    # More workers than cores, switching threads often: a count that leaked
    # between concurrent runs would show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ExecutionPool(max_workers=3) as threads:
            for pool in (None, threads):
                batch = prepared.execute_many(
                    [copy_of(database) for _ in range(3)], pool=pool)
                counts.append([(result.statistics.index_cache_hits,
                                result.statistics.index_cache_misses)
                               for result in batch.results])
    finally:
        sys.setswitchinterval(interval)
    serial, threaded = counts
    assert threaded == serial
    for hits, misses in serial:
        assert hits + misses == len(database.relations())


# --------------------------------------------------------------------------- #
# The benchmark's traced replay drives both entry points directly
# --------------------------------------------------------------------------- #
@SETTINGS
@given(query=queries())
def test_the_traced_bench_replay_entry_points_still_answer(query):
    """``run_blocks(blocks, trace=, check_hook=)`` then ``run_columnar_plan``.

    The repository benchmark's traced pass reduces with the first and times
    the fold as the second's reduce (then a memo hit) subtracted from its
    wall time; both must keep these signatures and this result shape.
    """
    database, outputs = query
    wanted = frozenset(outputs) if outputs is not None else None
    for plan, blocks in _plans(database, wanted):
        annotated = plan if hasattr(plan, "annotation") else None
        structure = annotated.structure if annotated is not None else plan
        trace = ReductionTrace()
        plan.reducer.run_blocks(blocks, trace=trace,
                                check_hook=lambda blocks, rooted: True)
        assert trace.steps_run <= len(plan.reducer)
        block, intermediates, phases = run_columnar_plan(structure, annotated,
                                                         blocks, wanted)
        assert isinstance(intermediates, tuple)
        assert set(phases) == {"reduce", "fold"}
        answer = block.to_relation("replay")
        expected = oracle(database, outputs)
        assert answer.rows == expected.rows
        assert answer.attributes == tuple(sorted_nodes(expected.schema.attribute_set))
