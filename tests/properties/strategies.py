"""Hypothesis strategies for hypergraphs, sacred sets and skewed databases.

Hypergraphs are kept small (≤ 7 nodes, ≤ 6 edges) so that the brute-force
definitional checks and the tableau-reduction core computation stay fast while
still covering a rich space of shapes (connected and disconnected, reduced and
non-reduced, acyclic and cyclic).  The database strategies generate small
random instances with wildly different relation sizes — the shape the
engine-equivalence property suites (session vs legacy, columnar vs row)
exercise.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

from hypothesis import strategies as st

from repro import Hypergraph

NODE_POOL = ("A", "B", "C", "D", "E", "F", "G")


@st.composite
def edges(draw, min_size: int = 1, max_size: int = 4):
    """One edge: a non-empty frozenset of pool nodes."""
    return frozenset(draw(st.sets(st.sampled_from(NODE_POOL),
                                  min_size=min_size, max_size=max_size)))


@st.composite
def hypergraphs(draw, min_edges: int = 1, max_edges: int = 5):
    """An arbitrary small hypergraph (may be disconnected, non-reduced, cyclic)."""
    edge_list = draw(st.lists(edges(), min_size=min_edges, max_size=max_edges))
    return Hypergraph(edge_list)


@st.composite
def connected_hypergraphs(draw, min_edges: int = 1, max_edges: int = 5):
    """A connected small hypergraph: the largest component of an arbitrary one."""
    hypergraph = draw(hypergraphs(min_edges=min_edges, max_edges=max_edges))
    components = hypergraph.components()
    if len(components) <= 1:
        return hypergraph
    largest = max(components, key=len)
    return hypergraph.node_generated(largest)


@st.composite
def hypergraphs_with_sacred(draw, max_edges: int = 5):
    """A pair (hypergraph, sacred node subset)."""
    hypergraph = draw(hypergraphs(max_edges=max_edges))
    sacred = draw(st.sets(st.sampled_from(sorted(hypergraph.nodes)), max_size=3)) \
        if hypergraph.nodes else set()
    return hypergraph, frozenset(sacred)


def skew_database(database, seed):
    """Thin every relation to its own random fraction — skewed cardinalities."""
    from repro.relational import Relation

    rng = random.Random(seed)
    current = database
    for relation in database.relations():
        fraction = rng.choice((0.1, 0.35, 0.7, 1.0))
        keep = max(1, int(len(relation) * fraction)) if len(relation) else 0
        rows = sorted(relation.rows, key=lambda row: sorted(row.items()))[:keep]
        current = current.with_relation(
            Relation.from_valid_rows(relation.schema, frozenset(rows)))
    return current


def fresh_block(block):
    """The block of a value-equal new relation: same name, columns and rows.

    Its storage is new, so no kernel, memo or decode has touched it yet.
    """
    from repro.engine.columnar import block_for
    from repro.relational import Relation, RelationSchema

    return block_for(Relation.from_tuples(
        RelationSchema.of(block.name, block.attributes), block.iter_rows()))


def rebound(database):
    """A second database over the *same* relation objects.

    A prepared query binds it anew, so its first execute runs every kernel
    again — over the cached blocks of those relations, whose per-storage
    memos the first database's runs filled — where a warm execute on the
    first database is served from its binding's memo and runs none.
    """
    from repro.relational import Database

    return Database(database.schema, {relation.name: relation
                                      for relation in database.relations()})


@contextmanager
def deadline_expiring_entering(phase: str):
    """Run the engine as if its deadline expired just before ``phase``.

    The evaluator's between-phase checks pass until the one entering
    ``phase``, which raises :class:`~repro.exceptions.ExecutionTimeoutError`
    — what a budget spent by the end of the phase before would do, without
    depending on how long that phase takes.
    """
    import pytest

    from repro.engine import yannakakis
    from repro.exceptions import ExecutionTimeoutError

    def check(entering: str) -> None:
        if entering == phase:
            raise ExecutionTimeoutError(phase=entering, deadline_seconds=1.0,
                                        elapsed_seconds=1.0)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(yannakakis, "check_deadline", check)
        yield


def benchmark_instance(kind):
    """The benchmark's large instances (generator seeds and ``--seed 3`` labels).

    One dangling row per relation, as the benchmark's never-seen copies
    carry, so the acyclic steps filter instead of all being fixpoints.
    """
    from repro.generators import (generate_database, skewed_chain_database,
                                  skewed_chain_endpoints, triangle_core_chain)
    from repro.relational import Database, DatabaseSchema, Relation, Row

    if kind == "acyclic":
        database = skewed_chain_database(8, heads=200, fanout=50,
                                         junction_values=4, seed=1)
        outputs = skewed_chain_endpoints(8)
    else:
        database = generate_database(
            DatabaseSchema.from_hypergraph(triangle_core_chain(4)),
            universe_rows=2000, domain_size=40, dangling_fraction=0.5, seed=4)
        outputs = ("C0", "C5")
    relations = {}
    for relation in database.relations():
        attributes = relation.schema.attributes
        rows = {Row({attribute: f"{row[attribute]}/3" for attribute in attributes})
                for row in relation.rows}
        rows.add(Row({attribute: f"fresh-{attribute}" for attribute in attributes}))
        relations[relation.name] = Relation.from_valid_rows(relation.schema,
                                                            frozenset(rows))
    return Database(database.schema, relations), outputs


def small_instance(kind):
    """A small acyclic chain or triangle-core chain, and its endpoint outputs."""
    from repro.generators import (generate_database, skewed_chain_database,
                                  skewed_chain_endpoints, triangle_core_chain)
    from repro.relational import DatabaseSchema

    if kind == "acyclic":
        return skewed_chain_database(5, heads=6, fanout=4, seed=2), \
            skewed_chain_endpoints(5)
    schema = DatabaseSchema.from_hypergraph(triangle_core_chain(3))
    return generate_database(schema, universe_rows=60, domain_size=6,
                             dangling_fraction=0.4, seed=5), ("C0", "C4")


def semijoin_stable(blocks, rooted) -> bool:
    """Whether every tree edge's decoded relations are mutual semijoin fixpoints.

    The ``repro.relational`` reading of full reduction: for each edge
    ``(child, parent)`` of ``rooted``, ``parent ⋉ child`` and ``child ⋉
    parent`` (:func:`repro.relational.algebra.semijoin`) keep every row.
    """
    from repro.relational.algebra import semijoin

    relations = {vertex: block.to_relation() for vertex, block in blocks.items()}
    return all(
        len(semijoin(relations[left], relations[right])) == len(relations[left])
        for vertex, parent in rooted.leaf_to_root() if parent is not None
        for left, right in ((parent, vertex), (vertex, parent)))


@st.composite
def skewed_acyclic_databases(draw):
    """A random acyclic database whose relations have wildly different sizes."""
    from repro.generators import generate_database, random_acyclic_hypergraph
    from repro.relational import DatabaseSchema

    num_edges = draw(st.integers(min_value=1, max_value=5))
    schema_seed = draw(st.integers(min_value=0, max_value=200))
    data_seed = draw(st.integers(min_value=0, max_value=200))
    skew_seed = draw(st.integers(min_value=0, max_value=200))
    dangling = draw(st.sampled_from([0.0, 0.4]))
    hypergraph = random_acyclic_hypergraph(num_edges, max_arity=3, seed=schema_seed)
    schema = DatabaseSchema.from_hypergraph(hypergraph)
    database = generate_database(schema, universe_rows=14, domain_size=3,
                                 dangling_fraction=dangling, seed=data_seed)
    return skew_database(database, skew_seed)


@st.composite
def skewed_cyclic_databases(draw):
    """A random database over one of the cyclic workload family hypergraphs."""
    from repro.generators import cyclic_workload_families, generate_database
    from repro.relational import DatabaseSchema

    family = draw(st.sampled_from([name for name, _ in cyclic_workload_families()]))
    data_seed = draw(st.integers(min_value=0, max_value=100))
    skew_seed = draw(st.integers(min_value=0, max_value=100))
    hypergraph = dict(cyclic_workload_families())[family]
    schema = DatabaseSchema.from_hypergraph(hypergraph)
    return skew_database(generate_database(schema, universe_rows=12, domain_size=3,
                                           dangling_fraction=0.3, seed=data_seed),
                         skew_seed)
