"""Property-based: a cyclic core exports only its articulation set, on a one-sort ``distinct``.

Three claims, each held against something that shares no code with it:

* **answers** — with any output subset (0-ary and full included) the
  projected cluster materialisation returns exactly what
  :func:`repro.relational.naive_join` returns, on both column backends,
  static and adaptive;
* **what a cluster exports** — a multi-member cluster's block holds exactly
  ``scheme ∩ (outputs ∪ every other cluster's scheme)``, a singleton its
  whole scheme, and without outputs nothing is projected: the recorded
  sizes equal the ones the unprojecting parent of this change recorded on
  three pinned instances;
* **``first_occurrence``** — the numpy backend's tagged sort (and its
  argsort and scalar fallbacks) keeps exactly the positions the pure-Python
  ``array`` backend keeps, and never calls ``np.unique``.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.nodes import sorted_nodes
from repro.engine import EngineSession, QueryPlanner
from repro.engine.columnar import (
    available_column_backends,
    resolve_column_backend,
    use_column_backend,
)
from repro.engine.cyclic.quotient import materialise_cluster_blocks
from repro.generators import (
    clique_augmented_chain,
    cyclic_workload_families,
    generate_database,
    k_cycle_hypergraph,
    triangle_core_chain,
)
from repro.relational import DatabaseSchema, naive_join
from repro.telemetry import Tracer, use_tracer

from .strategies import skew_database, skewed_cyclic_databases

COMMON_SETTINGS = settings(max_examples=60, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])

BACKENDS = st.sampled_from(available_column_backends())

needs_numpy = pytest.mark.skipif("numpy" not in available_column_backends(),
                                 reason="numpy backend not installed")

#: The named workload families, k-cycles 3–7 and a small clique chain.
_SHAPES = tuple(hypergraph for _, hypergraph in cyclic_workload_families()) \
    + tuple(k_cycle_hypergraph(k) for k in range(3, 8)) \
    + (clique_augmented_chain(2, clique_size=3),)


@st.composite
def cyclic_databases(draw):
    """A skewed database over a workload family, a k-cycle or a clique chain.

    Half the draws are ``skewed_cyclic_databases`` (three values per
    attribute: dense, nearly every combination joins); the other half use a
    wider domain, where a core attribute dropped one join too early lets
    through rows the naive join does not have.
    """
    if draw(st.booleans()):
        return draw(skewed_cyclic_databases())
    hypergraph = draw(st.sampled_from(_SHAPES))
    database = generate_database(
        DatabaseSchema.from_hypergraph(hypergraph), universe_rows=12,
        domain_size=6, dangling_fraction=0.3,
        seed=draw(st.integers(min_value=0, max_value=100)))
    return skew_database(database, draw(st.integers(min_value=0, max_value=100)))


@st.composite
def databases_with_outputs(draw):
    """A cyclic database plus a random output subset — ``()`` and all included."""
    database = draw(cyclic_databases())
    attributes = sorted_nodes(database.schema.attributes)
    outputs = draw(st.one_of(
        st.just(()), st.just(tuple(attributes)),
        st.sets(st.sampled_from(attributes)).map(
            lambda chosen: tuple(sorted_nodes(chosen)))))
    return database, outputs


# --------------------------------------------------------------------------- #
# Answers
# --------------------------------------------------------------------------- #
@pytest.mark.slow
@COMMON_SETTINGS
@given(case=databases_with_outputs(), backend=BACKENDS, adaptive=st.booleans())
def test_projected_clusters_answer_like_the_naive_join(case, backend, adaptive):
    database, outputs = case
    session = EngineSession(column_backend=backend, adaptive=adaptive)
    result = session.prepare(database, outputs).execute(database)
    expected, _ = naive_join(database, outputs)
    assert frozenset(result.relation.rows) == frozenset(expected.rows)
    assert result.relation.schema.attribute_set == frozenset(outputs)


# --------------------------------------------------------------------------- #
# What a cluster exports
# --------------------------------------------------------------------------- #
@pytest.mark.slow
@COMMON_SETTINGS
@given(case=databases_with_outputs(), backend=BACKENDS, adaptive=st.booleans())
def test_a_cluster_block_holds_exactly_what_the_cluster_exports(case, backend,
                                                                adaptive):
    database, outputs = case
    wanted = frozenset(outputs)
    catalog = database.statistics_catalog() if adaptive else None
    plan = QueryPlanner().cyclic_plan_for(database.schema.to_hypergraph(),
                                          catalog=catalog)
    with use_column_backend(resolve_column_backend(backend)):
        materialised = materialise_cluster_blocks(
            plan.cover, database.relations(), catalog=catalog, wanted=wanted)
        unprojected = materialise_cluster_blocks(
            plan.cover, database.relations(), catalog=catalog)
    schemes = [cluster.attributes for cluster in plan.clusters]
    assert materialised.schemes == tuple(schemes)
    for position, (cluster, block, whole) in enumerate(zip(
            plan.clusters, materialised.blocks, unprojected.blocks)):
        assert whole.attribute_set == schemes[position]
        if cluster.is_singleton:
            assert block.attribute_set == schemes[position]
            assert len(block) == len(whole)
            continue
        others = frozenset().union(*schemes[:position], *schemes[position + 1:])
        assert block.attribute_set == schemes[position] & (wanted | others)
        assert len(block) <= len(whole)
    assert len(materialised.probe_rows) == len(materialised.intermediate_sizes) \
        == sum(cluster.fan_out - 1 for cluster in plan.clusters)
    assert all(probed >= kept for probed, kept in zip(
        materialised.probe_rows, materialised.intermediate_sizes))
    # Without outputs nothing is projected, so nothing is deduplicated.
    assert unprojected.probe_rows == unprojected.intermediate_sizes


#: (shape, generator arguments, adaptive) → (cluster_sizes, intermediate_sizes)
#: of the full join, as recorded by the parent of this change (which never
#: projected a cluster).
_PINNED = (
    (triangle_core_chain(4),
     dict(universe_rows=60, domain_size=4, dangling_fraction=0.6, seed=11), True,
     (64, 64, 54, 59, 65), (64, 64, 113, 262, 778, 12448)),
    (k_cycle_hypergraph(5),
     dict(universe_rows=30, domain_size=3, dangling_fraction=0.3, seed=2), True,
     (27, 72), (27, 24, 72, 216)),
    (clique_augmented_chain(3, clique_size=4),
     dict(universe_rows=25, domain_size=3, dangling_fraction=0.3, seed=1), False,
     (22, 100, 11, 11, 20, 18, 11, 10), (100, 58, 58, 58, 58, 27, 65, 1280)),
)


@pytest.mark.parametrize("hypergraph, arguments, adaptive, clusters, intermediates",
                         _PINNED, ids=lambda value: getattr(value, "name", None))
def test_the_full_join_projects_nothing(hypergraph, arguments, adaptive,
                                        clusters, intermediates):
    database = generate_database(DatabaseSchema.from_hypergraph(hypergraph),
                                 **arguments)
    statistics = EngineSession(adaptive=adaptive) \
        .prepare(database).execute(database).statistics
    assert statistics.cluster_sizes == clusters
    assert statistics.intermediate_sizes == intermediates


def test_benchmark_instance_count_guard():
    """The counts ISSUE 22 named before the change was written.

    The repository benchmark's cyclic query, rebuilt from the generators: the
    triangle cluster ``{C0T1, C0T2, T1T2}`` contributes its 40 distinct ``C0``
    values instead of 23 632 rows × 3 columns, and the first join's 32 538
    pairs leave 1 600 rows over ``{C0, T2}``.  (Parent: ``(2955, 23632,
    2949, 2970, 2958)`` / ``(32538, 23632, 4212, 8512, 1600, 1600)``.)
    """
    database = generate_database(
        DatabaseSchema.from_hypergraph(triangle_core_chain(4)),
        universe_rows=2000, domain_size=40, dangling_fraction=0.5, seed=4)
    tracer = Tracer()
    with use_tracer(tracer):
        result = EngineSession(adaptive=True).prepare(
            database, ("C0", "C5")).execute(database)
    statistics = result.statistics
    assert statistics.cluster_sizes == (2955, 40, 2949, 2970, 2958)
    assert statistics.intermediate_sizes == (1600, 40, 4212, 8512, 1600, 1600)
    assert len(statistics.estimated_intermediate_sizes) == 6
    assert statistics.semijoin_steps == 8
    assert statistics.output_size == 1600
    span = next(record for record in tracer.records
                if record["name"] == "materialise")["attributes"]
    assert span["probe_rows"][0] == 32538
    assert span["kept"][1] == ["C0"]


# --------------------------------------------------------------------------- #
# first_occurrence
# --------------------------------------------------------------------------- #
#: Id magnitudes: dense ids (the tagged sort), ids whose span × rows passes
#: 2**63 (the stable argsort) and, from width 3, ids whose mixed-radix pack
#: passes it too (the scalar loop).
_ID_BOUNDS = (1, 4, 1 << 20, 1 << 30, (1 << 62) - 1)


@st.composite
def id_columns_and_positions(draw):
    width = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.integers(min_value=0, max_value=60))
    bound = draw(st.sampled_from(_ID_BOUNDS))
    shape = draw(st.sampled_from(["random", "all-equal", "all-distinct"]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    if shape == "all-equal":
        row = [rng.randrange(bound) for _ in range(width)]
        table = [row] * rows
    elif shape == "all-distinct":
        table = [[rng.randrange(bound) for _ in range(width - 1)] + [index]
                 for index in range(rows)]
    else:
        table = [[rng.randrange(bound) for _ in range(width)]
                 for _ in range(rows)]
    columns = [array("q", (row[slot] for row in table)) for slot in range(width)]
    if draw(st.booleans()):
        return columns, range(rows)
    chosen = draw(st.lists(st.integers(min_value=0, max_value=max(rows - 1, 0)),
                           unique=True, max_size=rows)) if rows else []
    return columns, array("q", chosen)


@needs_numpy
@settings(max_examples=300, deadline=None)
@given(case=id_columns_and_positions())
def test_numpy_first_occurrence_keeps_what_the_array_backend_keeps(case):
    columns, positions = case
    expected = resolve_column_backend("array").first_occurrence(columns, positions)
    kept = resolve_column_backend("numpy").first_occurrence(columns, positions)
    assert type(kept) is array and kept.typecode == "q"
    assert kept == expected


@needs_numpy
@pytest.mark.parametrize("columns, positions", [
    ([array("q")], range(0)),
    ([array("q", [7])], range(1)),
    ([array("q", [7, 7, 7])], array("q", [2, 0])),
    ([array("q", [0, (1 << 62), 0, (1 << 62)])], range(4)),
    ([array("q", [1 << 30, 5, 1 << 30]), array("q", [1 << 31, 5, 1 << 31])], range(3)),
    ([array("q", [1 << 40, 1, 1 << 40])] * 3, range(3)),
], ids=["empty", "one-row", "all-equal-vector", "argsort-single",
        "argsort-packed", "scalar"])
def test_first_occurrence_paths(columns, positions):
    expected = resolve_column_backend("array").first_occurrence(columns, positions)
    assert resolve_column_backend("numpy").first_occurrence(columns, positions) \
        == expected


@needs_numpy
def test_a_large_distinct_never_reaches_np_unique(monkeypatch):
    import numpy

    def forbidden(*args, **kwargs):
        raise AssertionError("first_occurrence called np.unique")

    monkeypatch.setattr(numpy, "unique", forbidden)
    rng = random.Random(22)
    column = array("q", (rng.randrange(1600) for _ in range(40_000)))
    other = array("q", (rng.randrange(3) for _ in range(40_000)))
    for columns in ([column], [column, other]):
        kept = resolve_column_backend("numpy").first_occurrence(columns,
                                                                range(40_000))
        assert kept == resolve_column_backend("array").first_occurrence(
            columns, range(40_000))
