"""E-CYC — the cyclic execution subsystem vs the naive plan on cyclic schemas.

The paper's conclusion warns that the universal-relation construction "will
not work when the underlying structure is cyclic"; the cyclic subsystem
(:mod:`repro.engine.cyclic`) makes those schemas first-class: cover the
cyclic core with clusters, reduce the acyclic quotient with the PR-1 full
reducer, nested-loop only inside the clusters.  The workload is the
Fig.-5-style chain with a triangle core
(:func:`repro.generators.triangle_core_chain`) padded with dangling tuples —
the chain punishes naive left-deep plans, the core exercises cluster
materialisation — plus the k-cycle and clique-augmented families.

Tuple counts are asserted (the acceptance shape: the cyclic engine's largest
intermediate is ≥ 5× smaller than the naive plan's); wall clock comes from
pytest-benchmark (``pytest benchmarks/ --benchmark-only``).
"""

from __future__ import annotations

import pytest

from repro.analysis import banner, statistics_table
from repro.engine import EngineSession
from repro.generators import (
    cyclic_workload_families,
    generate_database,
    triangle_core_chain,
)
from repro.relational import DatabaseSchema, execute_plan, naive_join_plan, project

ENDPOINTS = ("C0", "C5")


@pytest.fixture(scope="module")
def triangle_chain_db():
    """A 4-edge chain whose head closes into a triangle core, 60% dangling."""
    schema = DatabaseSchema.from_hypergraph(triangle_core_chain(4))
    return generate_database(schema, universe_rows=80, domain_size=4,
                             dangling_fraction=0.6, seed=42)


@pytest.mark.slow
@pytest.mark.benchmark(group="E-CYC cyclic join engines")
def test_naive_plan(benchmark, triangle_chain_db):
    result, stats = benchmark(
        lambda: execute_plan(naive_join_plan(triangle_chain_db), plan_name="naive"))
    assert stats.max_intermediate > 10 * len(project(result, ENDPOINTS))


@pytest.mark.slow
@pytest.mark.benchmark(group="E-CYC cyclic join engines")
def test_cyclic_engine(benchmark, triangle_chain_db):
    prepared = EngineSession(adaptive=False).prepare(triangle_chain_db, ENDPOINTS)
    result = benchmark(lambda: prepared.execute(triangle_chain_db))
    stats = result.statistics
    # Only the cluster materialisation may exceed the acyclic bound; the
    # quotient-level intermediates stay within output + reduced input.
    assert stats.max_intermediate <= max(stats.max_cluster_size,
                                         stats.output_size + stats.max_reduced_input)


@pytest.mark.slow
@pytest.mark.benchmark(group="E-CYC plan cache")
def test_cover_search_amortised_by_plan_cache(benchmark, triangle_chain_db):
    session = EngineSession(adaptive=False)
    prepared = session.prepare(triangle_chain_db, ENDPOINTS)
    prepared.execute(triangle_chain_db)  # warm
    frozen = session.cache_info()

    result = benchmark(lambda: prepared.execute(triangle_chain_db))
    assert result.statistics.plan_cache_hit
    assert session.cache_info() == frozen  # cover search never reruns


def test_tuple_count_comparison(triangle_chain_db):
    """The acceptance table: cyclic engine ≥ 5× below naive on max intermediates."""
    naive_result, naive_stats = execute_plan(naive_join_plan(triangle_chain_db),
                                             plan_name="naive")
    fast = EngineSession(adaptive=False).prepare(triangle_chain_db, ENDPOINTS) \
        .execute(triangle_chain_db)
    engine_stats = fast.statistics

    print(banner("E-CYC: chain with a triangle core, endpoints query"))
    print(statistics_table([naive_stats, engine_stats],
                           title="naive vs cyclic engine"))
    print(f"largest-intermediate savings: "
          f"{engine_stats.savings_versus(naive_stats):.1f}x")

    expected = project(naive_result, ENDPOINTS)
    assert frozenset(fast.relation.rows) == frozenset(expected.rows)
    assert engine_stats.max_intermediate * 5 <= naive_stats.max_intermediate


def test_workload_families_round_trip():
    """Every cyclic family evaluates correctly and reports cluster accounting."""
    session = EngineSession(adaptive=False)
    rows = []
    for name, hypergraph in cyclic_workload_families():
        schema = DatabaseSchema.from_hypergraph(hypergraph)
        database = generate_database(schema, universe_rows=20, domain_size=3,
                                     dangling_fraction=0.4, seed=7)
        naive_result, naive_stats = execute_plan(naive_join_plan(database),
                                                 plan_name=f"naive:{name}")
        fast = session.prepare(database).execute(database)
        assert frozenset(fast.relation.rows) == frozenset(naive_result.rows), name
        assert fast.statistics.max_intermediate <= naive_stats.max_intermediate, name
        rows.append(fast.statistics)
    print(statistics_table(rows, title="cyclic workload families (engine-cyclic)"))
