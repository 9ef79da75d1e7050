"""Unit tests for the synthetic database and query-workload generators."""

from __future__ import annotations

import pytest

from repro.core.acyclicity import is_acyclic
from repro.exceptions import GenerationError
from repro.generators import (
    add_dangling_tuples,
    clique_augmented_chain,
    cyclic_workload_families,
    generate_consistent_database,
    generate_database,
    k_cycle_hypergraph,
    query_attribute_workload,
    triangle_core_chain,
    university_schema,
)
from repro.relational import DatabaseSchema


class TestConsistentDatabases:
    def test_every_relation_populated(self):
        db = generate_consistent_database(university_schema(), universe_rows=20, seed=1)
        for relation in db:
            assert len(relation) >= 1

    def test_globally_consistent(self):
        db = generate_consistent_database(university_schema(), universe_rows=20, seed=1)
        assert db.is_globally_consistent()

    def test_reproducible(self):
        first = generate_consistent_database(university_schema(), universe_rows=10, seed=5)
        second = generate_consistent_database(university_schema(), universe_rows=10, seed=5)
        for name in first.schema.relation_names:
            assert first[name] == second[name]

    def test_empty_schema_rejected(self):
        with pytest.raises(GenerationError):
            generate_consistent_database(DatabaseSchema([]), universe_rows=5)


class TestDanglingTuples:
    def test_dangling_fraction_adds_tuples(self):
        base = generate_consistent_database(university_schema(), universe_rows=20, seed=2)
        dirty = add_dangling_tuples(base, fraction=0.5, seed=2)
        assert dirty.total_rows() > base.total_rows()
        assert dirty.dangling_tuple_count() > 0

    def test_zero_fraction_is_identity(self):
        base = generate_consistent_database(university_schema(), universe_rows=10, seed=3)
        same = add_dangling_tuples(base, fraction=0.0, seed=3)
        assert same.total_rows() == base.total_rows()

    def test_negative_fraction_rejected(self):
        base = generate_consistent_database(university_schema(), universe_rows=5, seed=3)
        with pytest.raises(GenerationError):
            add_dangling_tuples(base, fraction=-0.1)

    def test_generate_database_wrapper(self):
        clean = generate_database(university_schema(), universe_rows=10, seed=4)
        dirty = generate_database(university_schema(), universe_rows=10,
                                  dangling_fraction=0.5, seed=4)
        assert clean.dangling_tuple_count() == 0
        assert dirty.dangling_tuple_count() > 0


class TestQueryWorkloads:
    def test_workload_sizes(self):
        workload = query_attribute_workload(university_schema(), queries=7,
                                            min_attributes=1, max_attributes=3, seed=1)
        assert len(workload) == 7
        for attributes in workload:
            assert 1 <= len(attributes) <= 3
            assert set(attributes) <= university_schema().attributes

    def test_workload_reproducible(self):
        first = query_attribute_workload(university_schema(), queries=5, seed=9)
        second = query_attribute_workload(university_schema(), queries=5, seed=9)
        assert first == second

    def test_invalid_bounds(self):
        with pytest.raises(GenerationError):
            query_attribute_workload(university_schema(), queries=3,
                                     min_attributes=3, max_attributes=1)


class TestCyclicWorkloadFamilies:
    def test_triangle_core_chain_has_one_uncovered_triangle(self):
        hypergraph = triangle_core_chain(4)
        assert not is_acyclic(hypergraph)
        assert frozenset({"C0", "T1"}) in hypergraph.edge_set
        assert frozenset({"T1", "T2"}) in hypergraph.edge_set
        assert frozenset({"T2", "C0"}) in hypergraph.edge_set
        # The chain alone stays intact: 4 ternary edges.
        assert sum(1 for edge in hypergraph.edges if len(edge) == 3) == 4

    def test_k_cycle_is_cyclic_and_sized(self):
        for k in (3, 5, 7):
            hypergraph = k_cycle_hypergraph(k)
            assert hypergraph.num_edges == k
            assert not is_acyclic(hypergraph)
        with pytest.raises(GenerationError):
            k_cycle_hypergraph(2)

    def test_clique_augmented_chain(self):
        hypergraph = clique_augmented_chain(3, clique_size=4)
        assert not is_acyclic(hypergraph)
        # 4 clique nodes -> 6 pairwise edges, plus the 3 chain edges.
        assert hypergraph.num_edges == 9
        with pytest.raises(GenerationError):
            clique_augmented_chain(3, clique_size=2)

    def test_families_are_named_and_cyclic(self):
        families = cyclic_workload_families()
        assert len(families) >= 4
        for name, hypergraph in families:
            assert isinstance(name, str) and name
            assert not is_acyclic(hypergraph), name

    def test_families_generate_databases(self):
        for name, hypergraph in cyclic_workload_families():
            schema = DatabaseSchema.from_hypergraph(hypergraph)
            db = generate_database(schema, universe_rows=5, domain_size=3, seed=0)
            assert db.total_rows() > 0, name


class TestSkewedChain:
    def test_shape_and_cardinalities(self):
        from repro.generators import skewed_chain_database, skewed_chain_endpoints

        database = skewed_chain_database(4, heads=10, fanout=5, junction_values=3,
                                         seed=1)
        assert len(database["R1"]) == 50
        assert len(database["R2"]) == 50
        assert len(database["R3"]) == 3
        assert len(database["R4"]) == 3
        assert skewed_chain_endpoints(4) == ("C0", "C4")

    def test_no_dangling_tuples(self):
        from repro.generators import skewed_chain_database

        database = skewed_chain_database(3, heads=5, fanout=3, junction_values=2,
                                         seed=0)
        assert database.dangling_tuple_count() == 0

    def test_skew_is_visible_in_the_catalog(self):
        from repro.generators import skewed_chain_database

        database = skewed_chain_database(3, heads=10, fanout=8, junction_values=2,
                                         seed=2)
        catalog = database.statistics_catalog()

        def fewest_distinct(attribute):
            return min(catalog.distinct_count(edge, attribute)
                       for edge in catalog.edges if attribute in edge)

        assert fewest_distinct("C1") == 80
        assert fewest_distinct("C2") <= 2

    def test_rejects_degenerate_parameters(self):
        from repro.generators import skewed_chain_database

        with pytest.raises(GenerationError):
            skewed_chain_database(1)
        with pytest.raises(GenerationError):
            skewed_chain_database(3, heads=0)
