"""E-YANN — the semijoin execution engine vs naive and join-tree plans.

The paper's Section 7 claim made quantitative: on an acyclic schema with
dangling tuples, a naive left-deep join builds intermediates orders of
magnitude above the output, a join-tree-ordered plan already helps, and the
full Yannakakis engine (reduce along the tree, then join with early
projection, :mod:`repro.engine`) keeps the largest intermediate within
output + largest reduced input.  The workload is a Fig.-5-style chain
``{C0C1C2, C1C2C3, …}`` — the adversarial instance for left-deep plans —
padded with dangling tuples, queried for its endpoint pair, plus a random
acyclic instance from :mod:`repro.generators.random_hypergraphs`.

Tuple counts are asserted; wall clock comes from pytest-benchmark
(``pytest benchmarks/ --benchmark-only``).
"""

from __future__ import annotations

import pytest

from repro.analysis import statistics_table
from repro.engine import EngineSession
from repro.generators import chain_hypergraph, generate_database, random_acyclic_hypergraph
from repro.relational import (
    DatabaseSchema,
    execute_plan,
    join_tree_plan,
    naive_join,
    naive_join_plan,
)

ENDPOINTS = ("C0", "C6")


@pytest.fixture(scope="module")
def adversarial_chain_db():
    """A 5-edge Fig.-5-style chain, small domain (many collisions), 60% dangling."""
    hypergraph = chain_hypergraph(5, arity=3, overlap=2)
    schema = DatabaseSchema.from_hypergraph(hypergraph)
    return generate_database(schema, universe_rows=80, domain_size=4,
                             dangling_fraction=0.6, seed=42)


@pytest.fixture(scope="module")
def random_acyclic_db():
    """A generated acyclic schema (6 edges) with ≥ 100 rows per relation."""
    hypergraph = random_acyclic_hypergraph(6, max_arity=3, seed=3)
    schema = DatabaseSchema.from_hypergraph(hypergraph)
    return generate_database(schema, universe_rows=150, domain_size=5,
                             dangling_fraction=0.5, seed=7)


@pytest.mark.slow
@pytest.mark.benchmark(group="E-YANN acyclic join engines")
def test_naive_plan(benchmark, adversarial_chain_db):
    result, stats = benchmark(lambda: naive_join(adversarial_chain_db, ENDPOINTS))
    # The naive plan overshoots its own output by orders of magnitude.
    assert stats.max_intermediate > 10 * stats.output_size


@pytest.mark.slow
@pytest.mark.benchmark(group="E-YANN acyclic join engines")
def test_join_tree_ordered_plan(benchmark, adversarial_chain_db):
    relations = join_tree_plan(adversarial_chain_db)
    result, stats = benchmark(
        lambda: execute_plan(relations, plan_name="join-tree"))
    assert stats.output_size >= len(naive_join(adversarial_chain_db, ENDPOINTS)[0])


@pytest.mark.slow
@pytest.mark.benchmark(group="E-YANN acyclic join engines")
def test_semijoin_engine(benchmark, adversarial_chain_db):
    prepared = EngineSession(adaptive=False).prepare(adversarial_chain_db,
                                                     ENDPOINTS)
    result = benchmark(lambda: prepared.execute(adversarial_chain_db))
    stats = result.statistics
    assert stats.max_intermediate <= stats.output_size + stats.max_reduced_input


@pytest.mark.slow
@pytest.mark.benchmark(group="E-YANN plan cache")
def test_plan_cache_amortises_repeated_queries(benchmark, adversarial_chain_db):
    session = EngineSession(adaptive=False)
    prepared = session.prepare(adversarial_chain_db, ENDPOINTS)
    prepared.execute(adversarial_chain_db)  # warm
    frozen = session.cache_info()

    result = benchmark(lambda: prepared.execute(adversarial_chain_db))
    assert result.statistics.plan_cache_hit
    assert session.cache_info() == frozen  # warm runs never touch the planner


def test_tuple_count_comparison(adversarial_chain_db):
    """The acceptance-shape table: engine < naive on max intermediates, same answer."""
    slow, naive_stats = naive_join(adversarial_chain_db, ENDPOINTS)
    tree_result, tree_stats = execute_plan(join_tree_plan(adversarial_chain_db),
                                           plan_name="join-tree")
    fast = EngineSession(adaptive=False).prepare(adversarial_chain_db, ENDPOINTS) \
        .execute(adversarial_chain_db)
    engine_stats = fast.statistics

    print(statistics_table([naive_stats, tree_stats, engine_stats],
                           title="E-YANN: naive vs join-tree vs engine"))

    assert frozenset(fast.relation.rows) == frozenset(slow.rows)
    assert engine_stats.max_intermediate < naive_stats.max_intermediate
    assert engine_stats.max_intermediate <= \
        engine_stats.output_size + engine_stats.max_reduced_input
    # The join-tree order alone does not reduce dangling tuples; the engine's
    # semijoin passes are what keep the intermediates near the output.
    assert engine_stats.max_intermediate <= tree_stats.max_intermediate


def test_random_acyclic_bound(random_acyclic_db):
    """On a generated acyclic instance the engine honours the input+output bound."""
    assert all(len(r) >= 1 for r in random_acyclic_db.relations())
    result = EngineSession(adaptive=False).prepare(random_acyclic_db) \
        .execute(random_acyclic_db)
    stats = result.statistics
    naive_result, naive_stats = execute_plan(naive_join_plan(random_acyclic_db),
                                             plan_name="naive")
    assert frozenset(result.relation.rows) == frozenset(naive_result.rows)
    assert stats.max_intermediate <= stats.output_size + stats.max_reduced_input
