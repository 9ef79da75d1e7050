"""Property-based: the rerooting memo prices every rooting as a fresh simulation does.

:func:`~repro.engine.catalog.annotate_tree` folds each join-tree vertex once
per neighbour it can hang from, plus once as a root, and prices every
candidate rooting from those memoised states; only the winning rooting is
traversed.  The oracle below is the per-rooting loop it replaced: root the
tree at every candidate, simulate the whole bottom-up join with greedy child
ordering, keep the smallest (largest intermediate, total, default first,
root key).  The claims:

* **the same annotation** — on random join trees *and forests* (chains,
  stars, caterpillars, random trees, disconnected components), random
  catalogs (unmeasured schemes, empty and one-row relations, skewed distinct
  counts), with and without outputs, with the default and with pinned
  ``candidate_roots`` and with the candidate cap engaged, the memo's
  :class:`~repro.engine.catalog.CostAnnotation` equals (``==``) the oracle's:
  root, child order, estimates, intermediate sizes in leaf-to-root order and
  output size, float for float;
* **hubs** — a star with 12+ leaves agrees too, and builds no more
  :class:`~repro.engine.catalog.JoinEstimate` than the oracle: the greedy
  step is O(deg²) per state either way, which is why the candidate cap stays;
* **linear work, counted** — on chains of 4–24 vertices the estimates built
  per call fit one line a·n + b exactly, and one call roots the tree once;
* **the cover search builds each cluster once** — a cold clique-chain
  operation calls ``sorted_nodes`` fewer times than the 3 144 of the
  per-cover sort it replaced;
* **the trace shows it** — the ``annotate`` span carries ``root_candidates``
  and ``rooting_states`` (3n − 2 on a tree of n vertices).
"""

from __future__ import annotations

import cProfile
import pstats
import random
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Hypergraph
from repro.core.hypergraph import Edge
from repro.core.join_tree import JoinTree, RootedJoinTree
from repro.core.nodes import node_sort_key, sorted_nodes
from repro.engine import EngineSession, QueryPlanner, clear_column_caches
from repro.engine.catalog import (
    _MAX_ROOT_CANDIDATES,
    CostAnnotation,
    JoinEstimate,
    RelationStatistics,
    StatisticsCatalog,
    annotate_tree,
)
from repro.generators import (
    clique_augmented_chain,
    generate_database,
    skewed_chain_database,
    skewed_chain_endpoints,
)
from repro.relational import DatabaseSchema
from repro.telemetry.tracing import Tracer, use_tracer


# --------------------------------------------------------------------------- #
# The oracle: one full simulation per candidate rooting
# --------------------------------------------------------------------------- #
def _edge_key(edge: Edge) -> Tuple:
    return tuple(node_sort_key(node) for node in sorted_nodes(edge))


def _simulate_rooting(rooted: RootedJoinTree,
                      reduced: Mapping[Edge, JoinEstimate],
                      wanted: Optional[FrozenSet]
                      ) -> Tuple[Dict[Edge, Tuple[Edge, ...]], Tuple[int, ...], int]:
    partial: Dict[Edge, JoinEstimate] = {}
    order_map: Dict[Edge, Tuple[Edge, ...]] = {}
    sizes: List[int] = []
    for vertex, parent in rooted.leaf_to_root():
        current = reduced[vertex]
        children = list(rooted.children_of(vertex))
        final_keep: Optional[FrozenSet] = None
        if wanted is not None:
            subtree_attributes = set(vertex)
            for child in children:
                subtree_attributes.update(partial[child].attributes)
            final_keep = frozenset(subtree_attributes) & wanted
            if parent is not None:
                final_keep |= frozenset(vertex) & frozenset(parent)
        chosen: List[Edge] = []
        remaining = list(children)
        while remaining:
            best = None
            for child in remaining:
                joined = current.join(partial[child])
                if final_keep is not None:
                    keep = set(final_keep)
                    for other in remaining:
                        if other is not child:
                            keep |= frozenset(vertex) & frozenset(other)
                    joined = joined.project(keep)
                key = (joined.cardinality, _edge_key(child))
                if best is None or key < best[0]:
                    best = (key, child, joined)
            _, child, current = best
            remaining.remove(child)
            chosen.append(child)
            sizes.append(current.rows)
        if final_keep is not None and final_keep != current.attributes:
            current = current.project(final_keep)
        partial[vertex] = current
        if chosen:
            order_map[vertex] = tuple(chosen)
    roots = rooted.roots
    if not roots:
        return order_map, tuple(sizes), 0
    result = partial[roots[0]]
    for other_root in roots[1:]:
        result = result.join(partial[other_root])
        if wanted is not None:
            result = result.project((result.attributes
                                     | partial[other_root].attributes) & wanted)
        sizes.append(result.rows)
    return order_map, tuple(sizes), result.rows


def oracle_annotate(tree: JoinTree, catalog: StatisticsCatalog, *,
                    output_attributes=None, candidate_roots=None,
                    max_root_candidates: int = _MAX_ROOT_CANDIDATES) -> CostAnnotation:
    wanted = frozenset(output_attributes) if output_attributes is not None else None
    base = {vertex: catalog.estimate_for(vertex) for vertex in tree.vertices}
    reduced = {}
    for vertex in tree.vertices:
        estimate = base[vertex]
        factor = 1.0
        for neighbour in tree.neighbours(vertex):
            factor *= estimate.semijoin_selectivity(base[neighbour])
        reduced[vertex] = estimate.scaled(factor)
    if candidate_roots is not None:
        candidates = list(candidate_roots)
    elif len(tree.vertices) <= max_root_candidates:
        candidates = [None] + sorted(tree.vertices, key=_edge_key)
    else:
        candidates = [None]
    best = None
    for root in candidates:
        rooted = tree.rooted(root)
        order_map, sizes, output_estimate = _simulate_rooting(rooted, reduced, wanted)
        key = (max(sizes, default=0), sum(sizes),
               0 if root is None else 1,
               _edge_key(root) if root is not None else ())
        if best is None or key < best[0]:
            best = (key, root, order_map, sizes, output_estimate)
    _, root, order_map, sizes, output_estimate = best
    return CostAnnotation(
        root=root, child_order=order_map,
        vertex_estimates={vertex: base[vertex].rows for vertex in tree.vertices},
        reduced_estimates={vertex: reduced[vertex].rows for vertex in tree.vertices},
        estimated_intermediate_sizes=sizes,
        estimated_output_size=output_estimate)


# --------------------------------------------------------------------------- #
# Random join forests and catalogs
# --------------------------------------------------------------------------- #
SHAPES = ("chain", "star", "caterpillar", "random", "forest")


def forest_parents(shape: str, size: int, rng: random.Random) -> List[Optional[int]]:
    """``parents[i]`` is vertex ``i``'s tree neighbour towards vertex 0 (``None``: a root)."""
    if shape == "chain":
        return [None] + list(range(size - 1))
    if shape == "star":
        return [None] + [0] * (size - 1)
    if shape == "caterpillar":
        spine = max(1, size // 2)
        return [None] + list(range(spine - 1)) \
            + [rng.randrange(spine) for _ in range(size - spine)]
    parents: List[Optional[int]] = [None]
    for vertex in range(1, size):
        root_here = shape == "forest" and rng.random() < 0.3
        parents.append(None if root_here else rng.randrange(vertex))
    return parents


def forest_tree(parents: Sequence[Optional[int]], rng: random.Random) -> JoinTree:
    """A join forest of exactly this shape; labels shuffled so rank ≠ build order."""
    size = len(parents)
    label = list(range(size))
    rng.shuffle(label)
    members: List[set] = [{f"P{label[vertex]:02d}"} for vertex in range(size)]
    for vertex, parent in enumerate(parents):
        if parent is None:
            continue
        # A one- or two-attribute separator per tree edge: running intersection
        # holds because each separator lives on exactly one tree edge.
        for extra in range(1 + (rng.random() < 0.3)):
            shared = f"J{label[vertex]:02d}{'ab'[extra]}"
            members[vertex].add(shared)
            members[parent].add(shared)
    vertices = [frozenset(nodes) for nodes in members]
    tree_edges = tuple(frozenset({vertices[vertex], vertices[parent]})
                       for vertex, parent in enumerate(parents) if parent is not None)
    hypergraph = Hypergraph(vertices)
    return JoinTree(hypergraph=hypergraph, vertices=hypergraph.edges, tree_edges=tree_edges)


def random_catalog(tree: JoinTree, rng: random.Random) -> StatisticsCatalog:
    entries = []
    for vertex in tree.vertices:
        if rng.random() < 0.15:
            continue  # unmeasured: the catalog's neutral fallback
        cardinality = rng.choice([0, 1, 2, rng.randrange(3, 60), rng.randrange(60, 5000)])
        distinct = {attribute: rng.randrange(0, cardinality + 2) for attribute in vertex
                    if rng.random() < 0.9}
        entries.append(RelationStatistics(edge=vertex, cardinality=cardinality,
                                          distinct_counts=distinct))
    return StatisticsCatalog(entries)


@st.composite
def annotation_cases(draw):
    shape = draw(st.sampled_from(SHAPES))
    size = draw(st.integers(min_value=1, max_value=11))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    tree = forest_tree(forest_parents(shape, size, rng), rng)
    catalog = random_catalog(tree, rng)
    attributes = sorted(tree.hypergraph.nodes)
    outputs = None if draw(st.booleans()) else frozenset(
        draw(st.lists(st.sampled_from(attributes), max_size=4)))
    options: Dict[str, object] = {}
    pin = draw(st.sampled_from(("default", "pinned", "capped")))
    if pin == "pinned":
        options["candidate_roots"] = draw(st.lists(
            st.sampled_from([None] + list(tree.vertices)), min_size=1, max_size=4))
    elif pin == "capped":
        options["max_root_candidates"] = draw(st.integers(min_value=0, max_value=size))
    return tree, catalog, outputs, options


@pytest.mark.slow
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(annotation_cases())
def test_memo_equals_per_rooting_simulation(case):
    tree, catalog, outputs, options = case
    expected = oracle_annotate(tree, catalog, output_attributes=outputs, **options)
    assert annotate_tree(tree, catalog, output_attributes=outputs, **options) == expected
    assert list(annotate_tree(tree, catalog, output_attributes=outputs,
                              **options).child_order) == list(expected.child_order)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_large_shapes_with_root_candidates_pinned_to_every_vertex(shape, seed):
    # Past the default cap, with every vertex pinned: the memo's widest case.
    rng = random.Random(seed)
    tree = forest_tree(forest_parents(shape, 22, rng), rng)
    catalog = random_catalog(tree, rng)
    candidates = [None] + list(tree.vertices)
    outputs = frozenset(rng.sample(sorted(tree.hypergraph.nodes), 3))
    for wanted in (None, outputs):
        assert annotate_tree(tree, catalog, output_attributes=wanted,
                             candidate_roots=candidates) \
            == oracle_annotate(tree, catalog, output_attributes=wanted,
                               candidate_roots=candidates)


class _Counter:
    """Counts calls of a patched method, forwarding to the original."""

    def __init__(self, patch, owner, name):
        self.calls = 0
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)
        patch.setattr(owner, name, counted)


def _joins_built(monkeypatch, run) -> int:
    with monkeypatch.context() as patch:
        counter = _Counter(patch, JoinEstimate, "__init__")
        run()
    return counter.calls


@pytest.mark.parametrize("leaves", [12, 14])
def test_a_hub_agrees_and_builds_no_more_estimates(monkeypatch, leaves):
    rng = random.Random(leaves)
    tree = forest_tree(forest_parents("star", leaves + 1, rng), rng)
    catalog = random_catalog(tree, rng)
    outputs = frozenset(rng.sample(sorted(tree.hypergraph.nodes), 4))
    for wanted in (None, outputs):
        assert annotate_tree(tree, catalog, output_attributes=wanted) \
            == oracle_annotate(tree, catalog, output_attributes=wanted)
        memo = _joins_built(monkeypatch, lambda: annotate_tree(
            tree, catalog, output_attributes=wanted))
        oracle = _joins_built(monkeypatch, lambda: oracle_annotate(
            tree, catalog, output_attributes=wanted))
        assert memo <= oracle


# --------------------------------------------------------------------------- #
# Counted complexity
# --------------------------------------------------------------------------- #
def _chain_case(length: int):
    database = skewed_chain_database(length, heads=6, fanout=3, junction_values=2, seed=1)
    hypergraph = database.schema.to_hypergraph()
    tree = QueryPlanner().plan_for(hypergraph).join_tree
    return tree, database.statistics_catalog(), skewed_chain_endpoints(length)


def test_estimates_per_call_are_linear_in_the_chain_length(monkeypatch):
    # Every rooting priced, the candidate cap lifted past 16 vertices.
    lengths = range(4, 25)
    built = {}
    for length in lengths:
        tree, catalog, outputs = _chain_case(length)
        built[length] = _joins_built(monkeypatch, lambda: annotate_tree(
            tree, catalog, output_attributes=outputs, max_root_candidates=length))
    slope = built[5] - built[4]
    intercept = built[4] - 4 * slope
    assert all(built[length] == slope * length + intercept for length in lengths), built
    # The per-rooting loop built 154 on an 8-vertex chain and 330 on 12.
    assert built[8] < 154 and built[12] < 330


def test_one_call_roots_the_tree_once(monkeypatch):
    for length in (4, 8, 12):
        tree, catalog, outputs = _chain_case(length)
        with monkeypatch.context() as patch:
            counter = _Counter(patch, JoinTree, "rooted_traversal")
            annotate_tree(tree, catalog, output_attributes=outputs)
        assert counter.calls == 1


def test_the_annotate_span_reports_candidates_and_states():
    for length in (4, 8):
        database = skewed_chain_database(length, heads=6, fanout=3,
                                         junction_values=2, seed=1)
        tracer = Tracer()
        with use_tracer(tracer):
            EngineSession(QueryPlanner()).prepare(
                database, skewed_chain_endpoints(length)).execute(database)
        (annotate,) = [record for record in tracer.records if record["name"] == "annotate"]
        attributes = annotate["attributes"]
        assert attributes["root_candidates"] == length + 1
        assert attributes["rooting_states"] == 3 * length - 2


def test_a_cold_clique_chain_sorts_fewer_node_sets():
    hypergraph = clique_augmented_chain(4, clique_size=4)
    database = generate_database(DatabaseSchema.from_hypergraph(hypergraph),
                                 universe_rows=100, domain_size=8,
                                 dangling_fraction=0.5, seed=4)
    attributes = sorted(str(attribute) for attribute in database.schema.attributes)
    outputs = (attributes[0], attributes[-1])
    clear_column_caches()
    profiler = cProfile.Profile()
    profiler.enable()
    EngineSession(QueryPlanner()).prepare(database, outputs).execute(database)
    profiler.disable()
    calls = sum(counts[1] for (_, _, function), counts in pstats.Stats(profiler).stats.items()
                if function == "sorted_nodes")
    # The per-cover sort keyed every cluster and member edge afresh: 3 144.
    assert calls < 3144, calls
