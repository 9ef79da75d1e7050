"""Unit tests for quotient construction and cluster materialisation."""

from __future__ import annotations

import pytest

from repro.core.acyclicity import is_acyclic
from repro.engine.cyclic.covers import ClusterCover, enumerate_covers, select_cover
from repro.engine.cyclic.quotient import AcyclicQuotient, materialise_cluster_blocks
from repro.exceptions import ClusterBoundExceededError, CyclicHypergraphError, SchemaError
from repro.generators import generate_database, k_cycle_hypergraph
from repro.relational import DatabaseSchema, Relation, RelationSchema, join_all


@pytest.fixture
def triangle():
    return k_cycle_hypergraph(3)


@pytest.fixture
def triangle_db(triangle):
    schema = DatabaseSchema.from_hypergraph(triangle)
    return generate_database(schema, universe_rows=15, domain_size=3,
                             dangling_fraction=0.4, seed=2)


class TestAcyclicQuotient:
    def test_build_validates_and_names_quotient(self, triangle):
        quotient = AcyclicQuotient.build(triangle, select_cover(enumerate_covers(triangle)))
        assert is_acyclic(quotient.hypergraph)
        assert quotient.original is triangle
        assert "clusters" in (quotient.hypergraph.name or "")

    def test_uncovered_edge_rejected(self, triangle):
        partial = ClusterCover.of([[edge] for edge in list(triangle.edges)[:2]])
        with pytest.raises(SchemaError):
            AcyclicQuotient.build(triangle, partial)

    def test_foreign_edge_rejected(self, triangle):
        foreign = ClusterCover.of([[edge] for edge in triangle.edges]
                                  + [[frozenset({"Z1", "Z2"})]])
        with pytest.raises(SchemaError):
            AcyclicQuotient.build(triangle, foreign)

    def test_cyclic_quotient_rejected(self, triangle):
        trivial = ClusterCover.of([[edge] for edge in triangle.edges])
        with pytest.raises(CyclicHypergraphError):
            AcyclicQuotient.build(triangle, trivial)

    def test_describe_lists_cover_and_quotient(self, triangle):
        quotient = AcyclicQuotient.build(triangle, select_cover(enumerate_covers(triangle)))
        text = quotient.describe()
        assert "ClusterCover" in text and "quotient:" in text


class TestMaterialiseClusters:
    def test_cluster_relation_equals_member_join(self, triangle, triangle_db):
        cover = select_cover(enumerate_covers(triangle))
        materialised = materialise_cluster_blocks(cover, triangle_db.relations())
        for cluster, block in zip(cover.clusters, materialised.blocks):
            members = []
            for edge in cluster.sorted_edges():
                members.extend(triangle_db.relations_for_edge(edge))
            expected = join_all(members)
            relation = block.to_relation(block.name)
            assert relation.schema.attribute_set == cluster.attributes
            assert frozenset(relation.rows) == frozenset(expected.rows)

    def test_sizes_recorded(self, triangle, triangle_db):
        cover = select_cover(enumerate_covers(triangle))
        materialised = materialise_cluster_blocks(cover, triangle_db.relations())
        assert len(materialised.cluster_sizes) == len(cover.clusters)
        assert all(size == len(block) for size, block in
                   zip(materialised.cluster_sizes, materialised.blocks))
        # Every non-singleton cluster contributes fan_out - 1 join steps.
        expected_steps = sum(cluster.fan_out - 1 for cluster in cover.clusters)
        assert len(materialised.intermediate_sizes) == expected_steps

    def test_duplicate_schemes_are_intersected(self, triangle):
        schema = RelationSchema.of("R", ["R0", "R1"])
        first = Relation.from_tuples(schema, [("a", "b"), ("c", "d")])
        second = Relation.from_tuples(schema.rename("S"), [("a", "b")])
        cover = ClusterCover.of([[frozenset({"R0", "R1"})]])
        materialised = materialise_cluster_blocks(cover, [first, second])
        assert materialised.cluster_sizes == (1,)

    def test_missing_relation_rejected(self, triangle, triangle_db):
        cover = select_cover(enumerate_covers(triangle))
        with pytest.raises(SchemaError):
            materialise_cluster_blocks(cover, triangle_db.relations()[:1])

    def test_row_bound_enforced(self, triangle, triangle_db):
        cover = select_cover(enumerate_covers(triangle))
        with pytest.raises(ClusterBoundExceededError):
            materialise_cluster_blocks(cover, triangle_db.relations(), row_bound=1)

    def test_generous_bound_passes(self, triangle, triangle_db):
        cover = select_cover(enumerate_covers(triangle))
        materialised = materialise_cluster_blocks(cover, triangle_db.relations(),
                                                  row_bound=10 ** 6)
        assert materialised.blocks
