"""Unit tests for cover search (repro.engine.cyclic.covers)."""

from __future__ import annotations

from repro.core.acyclicity import is_acyclic
from repro.core.hypergraph import Hypergraph
from repro.engine.cyclic.covers import (
    ClusterCover,
    EdgeCluster,
    cover_score,
    enumerate_covers,
    select_cover,
)
from repro.generators import (
    chain_hypergraph,
    clique_augmented_chain,
    figure_1,
    generate_database,
    k_cycle_hypergraph,
    triangle_core_chain,
)
from repro.relational import DatabaseSchema
from repro.telemetry import Tracer, use_tracer


class TestEdgeCluster:
    def test_attributes_width_fanout(self):
        cluster = EdgeCluster(edges=frozenset({frozenset("AB"), frozenset("BC")}))
        assert cluster.attributes == frozenset("ABC")
        assert cluster.width == 3
        assert cluster.fan_out == 2
        assert not cluster.is_singleton

    def test_singleton(self):
        cluster = EdgeCluster(edges=frozenset({frozenset("AB")}))
        assert cluster.is_singleton
        assert cluster.describe() == "{{A, B}} → {A, B}"


class TestClusterCover:
    def test_quotient_edges_deduplicate_schemes(self):
        cover = ClusterCover.of([[frozenset("AB"), frozenset("BC")],
                                 [frozenset("AC"), frozenset("BC")]])
        assert cover.quotient_edges == (frozenset("ABC"),)

    def test_covers_checks_exact_edge_set(self):
        hypergraph = Hypergraph.from_compact(["AB", "BC"])
        assert ClusterCover.of([[frozenset("AB")], [frozenset("BC")]]).covers(hypergraph)
        assert not ClusterCover.of([[frozenset("AB")]]).covers(hypergraph)

    def test_trivial_cover(self):
        cover = ClusterCover.of([[frozenset("AB")], [frozenset("BC")]])
        assert cover.is_trivial
        assert cover.fan_out == 1


class TestCorePeripheryCover:
    def test_acyclic_hypergraph_gets_trivial_cover(self):
        hypergraph = chain_hypergraph(4)
        cover = enumerate_covers(hypergraph)[0]
        assert cover.is_trivial
        assert cover.covers(hypergraph)

    def test_triangle_core_is_one_cluster(self):
        triangle = k_cycle_hypergraph(3)
        cover = enumerate_covers(triangle)[0]
        assert cover.covers(triangle)
        assert len(cover.clusters) == 1
        assert cover.clusters[0].fan_out == 3

    def test_chain_edges_stay_singletons(self):
        hypergraph = triangle_core_chain(4)
        cover = enumerate_covers(hypergraph)[0]
        assert cover.covers(hypergraph)
        chain_edges = [edge for edge in hypergraph.edges if len(edge) == 3]
        for edge in chain_edges:
            owner = [c for c in cover.clusters if edge in c.edges]
            assert len(owner) == 1 and owner[0].is_singleton

    def test_quotient_always_acyclic(self):
        for hypergraph in (k_cycle_hypergraph(3), k_cycle_hypergraph(6),
                           triangle_core_chain(5), clique_augmented_chain(3)):
            cover = enumerate_covers(hypergraph)[0]
            assert is_acyclic(cover.quotient_hypergraph()), hypergraph.name


class TestEnumerateAndChoose:
    def test_every_candidate_is_valid(self):
        hypergraph = triangle_core_chain(3)
        for cover in enumerate_covers(hypergraph):
            assert cover.covers(hypergraph)
            assert is_acyclic(cover.quotient_hypergraph())

    def test_enumeration_includes_baseline(self):
        hypergraph = k_cycle_hypergraph(4)
        # The whole 4-cycle is stuck: the baseline is one cluster of it.
        assert enumerate_covers(hypergraph)[0] == ClusterCover.of([hypergraph.edges])

    def test_chosen_cover_minimises_score(self):
        hypergraph = triangle_core_chain(4)
        candidates = enumerate_covers(hypergraph)
        chosen = select_cover(enumerate_covers(hypergraph))
        assert cover_score(chosen) == min(cover_score(c) for c in candidates)

    def test_choose_on_acyclic_is_trivial(self):
        assert select_cover(enumerate_covers(figure_1())).is_trivial

    def test_large_core_skips_refinement_but_still_covers(self):
        ring = k_cycle_hypergraph(9)
        covers = enumerate_covers(ring, max_component_edges=4)
        assert len(covers) == 1
        assert covers[0].covers(ring)

    def test_bridged_double_triangle_is_split_by_refinement(self):
        # Two triangles joined by a bridge edge: GYO sticks on all 7 edges,
        # so the baseline is one width-6 cluster — refinement must break the
        # core apart into width-3 clusters instead of materialising the lot.
        first = k_cycle_hypergraph(3, prefix="X")
        second = k_cycle_hypergraph(3, prefix="Y")
        bridge = Hypergraph([frozenset({"X0", "Y0"})])
        hypergraph = first.union(second).union(bridge)
        baseline = enumerate_covers(hypergraph)[0]
        assert baseline.width == 6
        chosen = select_cover(enumerate_covers(hypergraph))
        assert chosen.covers(hypergraph)
        assert chosen.width == 3
        assert is_acyclic(chosen.quotient_hypergraph())
        owner = [c for c in chosen.clusters if frozenset({"X0", "Y0"}) in c.edges]
        assert len(owner) == 1 and owner[0].is_singleton

    def test_empty_edge_joins_an_existing_cluster(self):
        hypergraph = Hypergraph(list(k_cycle_hypergraph(3).edges) + [frozenset()])
        cover = select_cover(enumerate_covers(hypergraph))
        assert cover.covers(hypergraph)
        assert is_acyclic(cover.quotient_hypergraph())


class TestSearchBudget:
    def test_over_cap_core_degrades_to_greedy_candidate_by_default(self):
        ring = k_cycle_hypergraph(9)
        covers = enumerate_covers(ring, max_component_edges=4)
        assert covers == (ClusterCover.of([ring.edges]),)
        assert covers[0].covers(ring)

    def test_selection_degrades_an_over_cap_core(self):
        ring = k_cycle_hypergraph(9)
        degraded = select_cover(enumerate_covers(ring, max_component_edges=4))
        assert degraded == ClusterCover.of([ring.edges])
        assert degraded.covers(ring)

    def test_within_cap_cores_are_refined_in_full(self):
        # At or under the cap the fallback never fires: the greedy candidate
        # is one admitted cover among the refinements, not the only one.
        for size in (3, 4, 5):
            ring = k_cycle_hypergraph(size)
            covers = enumerate_covers(ring, max_component_edges=size)
            assert len(covers) > 1
            assert ClusterCover.of([ring.edges]) in covers
            assert all(cover.covers(ring) for cover in covers)

    def test_candidate_limit_bounds_the_covers_built_not_just_admitted(self, monkeypatch):
        # Two disconnected 6-cycles: 203 partitions each, most with a cyclic
        # quotient.  Counting only admitted covers used to let the search
        # build every invalid combination (up to 203²) on the way to the
        # limit; the product now ranges over validated partitions only.
        two_cores = k_cycle_hypergraph(6, prefix="X").union(
            k_cycle_hypergraph(6, prefix="Y"))
        built = []
        construct = ClusterCover.__init__
        monkeypatch.setattr(
            ClusterCover, "__init__",
            lambda self, *args, **kwargs: built.append(1) or construct(self, *args, **kwargs))
        covers = enumerate_covers(two_cores, max_candidates=5)
        assert len(covers) == 5 == len(built)
        first, second = (k_cycle_hypergraph(6, prefix=prefix) for prefix in "XY")
        assert covers[0] == ClusterCover.of([first.edges, second.edges])
        for cover in covers:
            assert cover.covers(two_cores)
            assert is_acyclic(cover.quotient_hypergraph())

    def test_search_span_reports_effort_next_to_the_result(self):
        two_cores = k_cycle_hypergraph(4, prefix="X").union(
            k_cycle_hypergraph(5, prefix="Y")).add_edge({"X0", "Z"})
        tracer = Tracer()
        with use_tracer(tracer):
            covers = enumerate_covers(two_cores)
        (record,) = [r for r in tracer.records if r["name"] == "cover_search"]
        assert record["attributes"] == {
            "edges": 10, "core_edges": 9,
            # Bell(4) + Bell(5) partitions, less the two collapsed ones.
            "partitions_examined": 15 + 52 - 2,
            "candidates": len(covers)}


class TestCatalogAwareScore:
    def _catalog_for(self, hypergraph, *, seed=0):
        schema = DatabaseSchema.from_hypergraph(hypergraph)
        database = generate_database(schema, universe_rows=12, domain_size=3,
                                     seed=seed)
        return database.statistics_catalog()

    def test_static_and_catalog_scores_share_the_width_head(self):
        hypergraph = triangle_core_chain(3)
        catalog = self._catalog_for(hypergraph)
        for cover in enumerate_covers(hypergraph):
            assert cover_score(cover)[0] == cover_score(cover, catalog=catalog)[0]

    def test_estimated_rows_of_singleton_is_relation_cardinality(self):
        hypergraph = chain_hypergraph(3)
        catalog = self._catalog_for(hypergraph)
        cover = enumerate_covers(hypergraph)[0]
        assert cover.is_trivial
        for cluster in cover.clusters:
            assert cluster.estimated_rows(catalog) \
                == catalog.cardinality(cluster.attributes)

    def test_chosen_cover_with_catalog_minimises_catalog_score(self):
        hypergraph = triangle_core_chain(4)
        catalog = self._catalog_for(hypergraph)
        candidates = enumerate_covers(hypergraph)
        chosen = select_cover(enumerate_covers(hypergraph), catalog)
        assert cover_score(chosen, catalog=catalog) \
            == min(cover_score(c, catalog=catalog) for c in candidates)

    def test_selection_renders_only_the_candidates_tied_on_the_numbers(self, monkeypatch):
        candidates = enumerate_covers(k_cycle_hypergraph(5))
        best = min(cover_score(cover)[:-1] for cover in candidates)
        tied = [cover for cover in candidates if cover_score(cover)[:-1] == best]
        assert 1 < len(tied) < len(candidates)
        rendered = []
        describe = EdgeCluster.describe
        monkeypatch.setattr(EdgeCluster, "describe",
                            lambda cluster: rendered.append(cluster) or describe(cluster))
        chosen = select_cover(candidates)
        assert len(rendered) == sum(len(cover.clusters) for cover in tied)
        assert cover_score(chosen) == min(cover_score(cover) for cover in candidates)

    def test_selection_folds_each_distinct_member_prefix_once(self, monkeypatch):
        from repro.engine.catalog import JoinEstimate

        hypergraph = clique_augmented_chain(3)
        catalog = self._catalog_for(hypergraph)
        candidates = enumerate_covers(hypergraph)
        joined = []
        join = JoinEstimate.join
        monkeypatch.setattr(JoinEstimate, "join",
                            lambda left, right: joined.append(right) or join(left, right))
        chosen = select_cover(candidates, catalog)
        monkeypatch.undo()
        # Each distinct cluster is estimated once, and clusters sharing a
        # canonical-order member prefix share its fold.
        orders = {cluster.sorted_edges() for cover in candidates
                  for cluster in cover.clusters if not cluster.is_singleton}
        prefixes = {order[:length] for order in orders
                    for length in range(2, len(order) + 1)}
        assert len(joined) == len(prefixes) < sum(len(order) - 1 for order in orders)
        assert cover_score(chosen, catalog) \
            == min(cover_score(cover, catalog) for cover in candidates)
