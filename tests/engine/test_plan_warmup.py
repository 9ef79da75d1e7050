"""Unit tests for plan-cache warm-up (dump_fingerprints / warm_up)."""

from __future__ import annotations

import json

import pytest

from repro.core.hypergraph import Hypergraph
from repro.engine import EngineSession, QueryPlanner
from repro.generators import (
    generate_database,
    k_cycle_hypergraph,
    triangle_core_chain,
    university_schema,
)
from repro.relational import DatabaseSchema


@pytest.fixture
def worked_planner():
    """A planner that has served one acyclic and one cyclic workload."""
    planner = QueryPlanner()
    planner.plan_for(university_schema().to_hypergraph())
    planner.cyclic_plan_for(triangle_core_chain(3))
    return planner


class TestDump:
    def test_dump_is_json(self, worked_planner):
        entries = json.loads(worked_planner.dump_fingerprints())
        assert isinstance(entries, list) and entries
        kinds = {entry["kind"] for entry in entries}
        assert kinds == {"acyclic", "cyclic"}

    def test_dump_preserves_roots(self):
        planner = QueryPlanner()
        hypergraph = Hypergraph.from_compact(["ABC", "BCD"])
        planner.plan_for(hypergraph, root=frozenset("BCD"))
        entries = json.loads(planner.dump_fingerprints())
        assert entries[0]["root"] == ["B", "C", "D"]

    def test_empty_planner_dumps_empty_list(self):
        assert json.loads(QueryPlanner().dump_fingerprints()) == []


class TestWarmUp:
    def test_round_trip_precompiles_every_plan(self, worked_planner):
        fresh = QueryPlanner()
        compiled = fresh.warm_up(worked_planner.dump_fingerprints())
        assert compiled == fresh.cache_info().size == worked_planner.cache_info().size

    def test_warmed_planner_serves_hits_only(self, worked_planner):
        fresh = QueryPlanner()
        fresh.warm_up(worked_planner.dump_fingerprints())
        misses_before = fresh.cache_info().misses

        acyclic_db = generate_database(university_schema(), universe_rows=10, seed=1)
        cyclic_db = generate_database(
            DatabaseSchema.from_hypergraph(triangle_core_chain(3)),
            universe_rows=10, seed=1)
        # Default dispatch: the acyclic planner's failed join-tree lookup on
        # the cyclic schema compiles nothing, so it must count no miss.
        for database in (acyclic_db, cyclic_db):
            EngineSession(fresh, adaptive=False).prepare(database).execute(database)
        assert fresh.cache_info().misses == misses_before

    def test_warm_up_is_idempotent(self, worked_planner):
        dump = worked_planner.dump_fingerprints()
        fresh = QueryPlanner()
        first = fresh.warm_up(dump)
        second = fresh.warm_up(dump)
        assert first > 0 and second == 0

    def test_warm_up_accepts_parsed_entries_and_objects(self):
        planner = QueryPlanner()
        entries = [
            {"kind": "cyclic", "edges": [["R0", "R1"], ["R1", "R2"], ["R0", "R2"]],
             "root": None},
            university_schema(),
            k_cycle_hypergraph(3),  # a raw cyclic hypergraph routes to cyclic_plan_for
        ]
        compiled = planner.warm_up(entries)
        # Cyclic triangle plan + its quotient plan + the university plan; the
        # raw hypergraph shares the dict entry's fingerprint, so nothing new.
        assert compiled == planner.cache_info().size == 3

    def test_warm_up_rejects_garbage(self):
        with pytest.raises(ValueError):
            QueryPlanner().warm_up([42])

    def test_save_and_load_cache_round_trip_via_disk(self, worked_planner, tmp_path):
        path = tmp_path / "plans.json"
        saved = worked_planner.save_cache(path)
        assert saved == json.loads(path.read_text(encoding="utf-8")).__len__()
        fresh = QueryPlanner()
        compiled = fresh.load_cache(path)
        assert compiled == fresh.cache_info().size == worked_planner.cache_info().size

    def test_loaded_cache_serves_warm_start_with_zero_replanning(self, worked_planner,
                                                                 tmp_path):
        path = tmp_path / "plans.json"
        worked_planner.save_cache(path)
        fresh = QueryPlanner()
        fresh.load_cache(path)
        misses_before = fresh.cache_info().misses

        acyclic_db = generate_database(university_schema(), universe_rows=10, seed=1)
        cyclic_db = generate_database(
            DatabaseSchema.from_hypergraph(triangle_core_chain(3)),
            universe_rows=10, seed=1)
        # Default dispatch: the acyclic planner's failed join-tree lookup on
        # the cyclic schema compiles nothing, so it must count no miss.
        for database in (acyclic_db, cyclic_db):
            EngineSession(fresh, adaptive=False).prepare(database).execute(database)
        assert fresh.cache_info().misses == misses_before

    def test_save_cache_replaces_atomically(self, worked_planner, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text("stale", encoding="utf-8")
        worked_planner.save_cache(path)
        assert json.loads(path.read_text(encoding="utf-8"))
        assert not (tmp_path / "plans.json.tmp").exists()

    def test_load_cache_missing_file(self, tmp_path):
        planner = QueryPlanner()
        with pytest.raises(FileNotFoundError):
            planner.load_cache(tmp_path / "absent.json")
        assert planner.load_cache(tmp_path / "absent.json", missing_ok=True) == 0

    def test_round_trip_restores_tuple_valued_nodes(self):
        # JSON coerces tuple nodes to lists; warm_up must restore them so the
        # rebuilt fingerprints match queries over the original schema.
        planner = QueryPlanner()
        hypergraph = Hypergraph([frozenset({("a", 1), ("b", 2)}),
                                 frozenset({("b", 2), ("c", 3)})])
        planner.plan_for(hypergraph)
        fresh = QueryPlanner()
        assert fresh.warm_up(planner.dump_fingerprints()) == 1
        hits_before = fresh.cache_info().hits
        fresh.plan_for(hypergraph)
        assert fresh.cache_info().hits == hits_before + 1
