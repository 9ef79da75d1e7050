"""Differential test: cover search against a brute-force whole-hypergraph enumerator.

``enumerate_covers`` validates each core component's partitions once, on the
component's cluster schemes alone, with the in-place GYO kernel.  The
enumerator below is the search as it was before that: ear removal for the
core, every combination of partitions built as a cover, the *whole* quotient
hypergraph validated with the trace-recording ``graham_reduction``, covers
counted against ``max_candidates`` as they are admitted, and scores compared
with every rendering built eagerly.  Candidates must come out identical and in
the same order, and so must the chosen cover, statically and with a catalog.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, List, Tuple

import pytest

from repro import Hypergraph
from repro.core.components import edge_components
from repro.core.graham import graham_reduction, reduces_to_nothing
from repro.core.hypergraph import Edge
from repro.core.nodes import sorted_nodes
from repro.engine.cyclic.covers import ClusterCover, enumerate_covers, select_cover
from repro.engine.planner import QueryPlanner
from repro.generators import (
    clique_augmented_chain,
    cyclic_workload_families,
    generate_database,
    k_cycle_hypergraph,
)
from repro.relational import DatabaseSchema

from .test_property_graham_kernel import ear_removal


def _reference_is_acyclic(hypergraph: Hypergraph) -> bool:
    return reduces_to_nothing(graham_reduction(hypergraph).hypergraph)


def _set_partitions(items: List[Edge]) -> Iterator[List[List[Edge]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for index in range(len(partition)):
            yield partition[:index] + [[first] + partition[index]] + partition[index + 1:]
        yield partition + [[first]]


def brute_force_covers(hypergraph: Hypergraph, *, max_component_edges: int = 7,
                       max_candidates: int = 256) -> Tuple[ClusterCover, ...]:
    """Every admitted cover, validated on the whole quotient with the reference reduction."""
    proper = [edge for edge in hypergraph.edges if edge]
    empty = [edge for edge in hypergraph.edges if not edge]

    def cover_of(groups: List[List[Edge]]) -> ClusterCover:
        if empty:
            groups = [groups[0] + empty] + groups[1:] if groups else [empty]
        return ClusterCover.of(groups)

    if not proper or _reference_is_acyclic(Hypergraph(proper)):
        return (cover_of([[edge] for edge in proper]),)
    ears, residual = ear_removal(proper)
    components = [list(component) for component in edge_components(Hypergraph(residual))]
    baseline = cover_of([[edge] for edge in ears] + components)

    per_component = []
    for component in components:
        options = [[component]]
        if len(component) <= max_component_edges:
            ordered = sorted(component, key=lambda edge: tuple(sorted_nodes(edge)))
            options += [partition for partition in _set_partitions(ordered)
                        if len(partition) > 1]
        per_component.append(options)

    seen = set()
    covers: List[ClusterCover] = []

    def admit(candidate: ClusterCover) -> None:
        if candidate.clusters in seen:
            return
        seen.add(candidate.clusters)
        if candidate.covers(hypergraph) \
                and _reference_is_acyclic(candidate.quotient_hypergraph()):
            covers.append(candidate)

    admit(baseline)
    for combination in product(*per_component):
        if len(covers) >= max_candidates:
            break
        groups = [[edge] for edge in ears]
        for partition in combination:
            groups.extend(partition)
        admit(cover_of(groups))
    return tuple(covers)


def eager_score(cover: ClusterCover, catalog=None) -> Tuple:
    """``cover_score`` with the rendering tie-break built up front, estimates per cover."""
    materialised = sum(cluster.width for cluster in cover.clusters
                       if not cluster.is_singleton)
    rendering = tuple(cluster.describe() for cluster in cover.clusters)
    if catalog is None:
        return (cover.width, cover.fan_out, materialised, rendering)
    estimates = [cluster.estimated_rows(catalog) for cluster in cover.clusters
                 if not cluster.is_singleton]
    return (cover.width, max(estimates, default=0), sum(estimates),
            cover.fan_out, materialised, rendering)


def _two_core_schema() -> Hypergraph:
    return k_cycle_hypergraph(4, prefix="X").union(k_cycle_hypergraph(5, prefix="Y"),
                                                   name="4-cycle + 5-cycle")


SCHEMAS = [hypergraph for _, hypergraph in cyclic_workload_families()] \
    + [k_cycle_hypergraph(k) for k in (4, 6, 7)] \
    + [clique_augmented_chain(),
       _two_core_schema(),
       Hypergraph(list(k_cycle_hypergraph(4).edges) + [frozenset()], name="4-cycle + {}")]


@pytest.mark.parametrize("hypergraph", SCHEMAS, ids=lambda h: h.name)
def test_candidates_and_winners_match_the_brute_force_search(hypergraph):
    expected = brute_force_covers(hypergraph)
    candidates = enumerate_covers(hypergraph)
    assert candidates == expected

    database = generate_database(DatabaseSchema.from_hypergraph(hypergraph),
                                 universe_rows=12, domain_size=3, seed=1)
    catalog = database.statistics_catalog()
    static_winner = min(expected, key=eager_score)
    catalog_winner = min(expected, key=lambda cover: eager_score(cover, catalog))
    assert select_cover(candidates) == static_winner
    assert select_cover(candidates, catalog) == catalog_winner
    planner = QueryPlanner()
    assert planner.cyclic_plan_for(hypergraph).cover == static_winner
    assert planner.cyclic_plan_for(hypergraph, catalog=catalog).cover == catalog_winner


@pytest.mark.parametrize("max_candidates", [0, 1, 2, 7, 40])
def test_candidate_cut_matches_the_brute_force_search(max_candidates):
    hypergraph = _two_core_schema()
    assert enumerate_covers(hypergraph, max_candidates=max_candidates) \
        == brute_force_covers(hypergraph, max_candidates=max_candidates)


def test_over_cap_component_matches_the_brute_force_search():
    hypergraph = _two_core_schema()
    assert enumerate_covers(hypergraph, max_component_edges=4) \
        == brute_force_covers(hypergraph, max_component_edges=4)
