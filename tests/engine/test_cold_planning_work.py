"""Cold cyclic planning does each step once.

One cold operation of the benchmark's ``cold_adhoc`` workload is
``EngineSession().prepare(db, outputs).execute(db)`` on a never-seen schema.
For the five cyclic shapes that workload times, at its small sizes, these
tests pin the work such an operation does, exactly:

* cover search examines 4 / 4 / 51 / 202 / 14 set partitions and returns
  4 / 4 / 26 / 136 / 10 candidates — the same search, whatever validates a
  partition;
* the static cover and the catalog-chosen cover are the ones below (they
  differ on all five shapes);
* the adaptive prepare compiles no static plan, so the operation builds one
  quotient (two before), runs one ``select_cover`` pass (two before) and
  builds two join trees — the failed acyclic attempt and the chosen
  quotient's — where it built three.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.engine.cyclic.covers as covers
import repro.engine.planner as planner
from repro.core.nodes import sorted_nodes
from repro.engine import EngineSession
from repro.engine.cyclic.quotient import AcyclicQuotient
from repro.generators import cyclic_workload_families, generate_database, k_cycle_hypergraph
from repro.relational import DatabaseSchema
from repro.telemetry.tracing import Tracer, use_tracer

SHAPES = dict(cyclic_workload_families(chain_length=4)
              + (("4-cycle", k_cycle_hypergraph(4)),))

#: Per shape: (partitions examined, candidates, static cover, catalog-chosen
#: cover).  A cover is written cluster by cluster, in its canonical order,
#: each cluster as its member edges joined by ``+``.
EXPECTED = {
    "triangle-chain": (
        4, 4,
        "C0C1C2 | C0T1+C0T2 | C1C2C3 | C2C3C4 | C3C4C5 | T1T2",
        "C0C1C2 | C0T1+C0T2+T1T2 | C1C2C3 | C2C3C4 | C3C4C5"),
    "3-cycle": (4, 4, "R0R1+R0R2 | R1R2", "R0R1+R0R2+R1R2"),
    "5-cycle": (
        51, 26,
        "R0R1+R0R4 | R1R2+R3R4 | R2R3",
        "R0R1+R0R4+R3R4 | R1R2+R2R3"),
    "clique-chain": (
        202, 136,
        "C0C1C2 | C0K1+K2K3 | C0K2 | C0K3 | C1C2C3 | C2C3C4 | C3C4C5 | K1K2 | K1K3",
        "C0C1C2 | C0K1+C0K2+C0K3+K1K2+K1K3+K2K3 | C1C2C3 | C2C3C4 | C3C4C5"),
    "4-cycle": (14, 10, "R0R1+R0R3 | R1R2+R2R3", "R0R1+R1R2 | R0R3+R2R3"),
}


def _written(cover) -> str:
    return " | ".join("+".join("".join(map(str, sorted_nodes(edge)))
                               for edge in cluster.sorted_edges())
                      for cluster in cover.clusters)


@pytest.fixture(scope="module", params=sorted(SHAPES))
def shape(request):
    """``(name, hypergraph, database, outputs)`` at ``cold_adhoc``'s small sizes."""
    hypergraph = SHAPES[request.param]
    database = generate_database(DatabaseSchema.from_hypergraph(hypergraph),
                                 universe_rows=100, domain_size=8,
                                 dangling_fraction=0.5, seed=4)
    attributes = sorted(str(attribute) for attribute in database.schema.attributes)
    return request.param, hypergraph, database, (attributes[0], attributes[-1])


@pytest.fixture
def work(monkeypatch):
    """Count quotient builds, ``select_cover`` passes and the planner's join-tree builds."""
    counts = Counter()

    def counting(name, function):
        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(planner, "build_join_tree",
                        counting("build_join_tree", planner.build_join_tree))
    monkeypatch.setattr(covers, "select_cover",
                        counting("select_cover", covers.select_cover))
    build = AcyclicQuotient.build.__func__
    monkeypatch.setattr(AcyclicQuotient, "build", classmethod(
        counting("quotient_build", build)))
    return counts


def _cold_operation(database, outputs):
    tracer = Tracer()
    with use_tracer(tracer):
        session = EngineSession()
        prepared = session.prepare(database, outputs)
        result = prepared.execute(database)
    return session, prepared, result, tracer.records


def test_cover_search_and_both_winners_are_unchanged(shape):
    name, hypergraph, database, outputs = shape
    session, prepared, result, records = _cold_operation(database, outputs)
    (search,) = [record["attributes"] for record in records
                 if record["name"] == "cover_search"]
    examined, candidates, static, chosen = EXPECTED[name]
    assert (search["partitions_examined"], search["candidates"]) == (examined, candidates)
    assert _written(result.plan.cover) == chosen
    assert _written(prepared.structure.cover) == static


def test_a_cold_operation_compiles_one_quotient(shape, work):
    _, hypergraph, database, outputs = shape
    session, prepared, result, _ = _cold_operation(database, outputs)
    assert dict(work) == {"quotient_build": 1, "select_cover": 1,
                          "build_join_tree": 2}
    # The adaptive prepare's one planner entry is the cover search; the run
    # added the chosen cover's plan and its quotient's inner plan.
    assert session.cache_info().size == 3
    # A static read compiles the static plan then, once.
    static = prepared.structure
    assert prepared.structure is static
    assert dict(work) == {"quotient_build": 2, "select_cover": 2,
                          "build_join_tree": 3}
    assert static.cover != result.plan.cover
