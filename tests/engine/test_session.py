"""EngineSession / PreparedQuery lifecycle: the unified engine facade."""

from __future__ import annotations

import threading

import pytest

from repro.engine import (
    DEFAULT_PLANNER,
    EngineSession,
    ExecutionOptions,
    PreparedQuery,
    QueryPlanner,
    clear_column_caches,
    default_session,
)
from repro.engine import session as session_module
from repro.engine import yannakakis as yannakakis_module
from repro.engine.catalog import CostAnnotation
from repro.engine.columnar import block as columnar_block
from repro.engine.columnar import executor as columnar_executor
from repro.engine.columnar import kernels as columnar_kernels
from repro.engine.cyclic import executor as cyclic_executor
from repro.engine.session import BatchStatistics
from repro.generators import (
    chain_hypergraph,
    generate_database,
    k_cycle_hypergraph,
    random_acyclic_hypergraph,
    triangle_core_chain,
)
from repro.queries import ConjunctiveQuery
from repro.relational import DatabaseSchema, naive_join, yannakakis_join
from repro.telemetry import Tracer, use_tracer


@pytest.fixture()
def acyclic_db():
    hypergraph = chain_hypergraph(4, arity=3, overlap=2)
    schema = DatabaseSchema.from_hypergraph(hypergraph)
    return generate_database(schema, universe_rows=40, domain_size=4,
                             dangling_fraction=0.4, seed=11)


@pytest.fixture()
def cyclic_db():
    schema = DatabaseSchema.from_hypergraph(triangle_core_chain(3))
    return generate_database(schema, universe_rows=40, domain_size=4,
                             dangling_fraction=0.4, seed=7)


class TestDispatchAndEquivalence:
    def test_acyclic_source_dispatches_to_acyclic_engine(self, acyclic_db):
        prepared = EngineSession().prepare(acyclic_db, ("C0", "C5"))
        assert prepared.kind == "acyclic"

    def test_cyclic_source_dispatches_to_cyclic_subsystem(self, cyclic_db):
        prepared = EngineSession().prepare(cyclic_db)
        assert prepared.kind == "cyclic"

    def test_force_cyclic_overrides_dispatch(self, acyclic_db):
        prepared = EngineSession().prepare(acyclic_db, force_cyclic=True)
        assert prepared.kind == "cyclic"

    def test_prepared_matches_the_reference_acyclic(self, acyclic_db):
        session = EngineSession()
        prepared = session.prepare(acyclic_db, ("C0", "C5"))
        result = prepared.execute(acyclic_db)
        reference = yannakakis_join(acyclic_db, ("C0", "C5")).relation
        assert frozenset(result.relation.rows) == frozenset(reference.rows)

    def test_prepared_matches_the_reference_cyclic(self, cyclic_db):
        session = EngineSession()
        result = session.prepare(cyclic_db).execute(cyclic_db)
        reference, _ = naive_join(cyclic_db)
        assert frozenset(result.relation.rows) == frozenset(reference.rows)

    def test_static_options_match_the_reference(self, acyclic_db):
        session = EngineSession(adaptive=False)
        result = session.prepare(acyclic_db).execute(acyclic_db)
        assert not result.statistics.adaptive
        reference = yannakakis_join(acyclic_db).relation
        assert frozenset(result.relation.rows) == frozenset(reference.rows)

    def test_conjunctive_query_source(self, acyclic_db):
        query = ConjunctiveQuery.from_strings(
            ["x", "y"],
            body=[("R1", ["x", "b", "c"]), ("R2", ["b", "c", "d"]),
                  ("R3", ["c", "d", "y"])])
        session = EngineSession()
        prepared = session.prepare(query)
        result = prepared.execute(acyclic_db)
        naive = query.evaluate(acyclic_db, engine="naive")
        assert frozenset(result.relation.rows) == frozenset(naive.rows)

    def test_execute_join_matches_database_execute(self, acyclic_db):
        session = EngineSession()
        via_join = session.execute_join(acyclic_db.relations(), ("C0", "C5"))
        via_db = session.prepare(acyclic_db, ("C0", "C5")).execute(acyclic_db)
        assert frozenset(via_join.relation.rows) == frozenset(via_db.relation.rows)


class TestWarmPath:
    def test_warm_execute_does_no_planning_work_acyclic(self, acyclic_db):
        session = EngineSession()
        prepared = session.prepare(acyclic_db, ("C0", "C5"))
        first = prepared.execute(acyclic_db)
        frozen = session.cache_info()
        for _ in range(3):
            again = prepared.execute(acyclic_db)
            assert session.cache_info() == frozen
            assert again.statistics.plan_cache_hit
            assert frozenset(again.relation.rows) == frozenset(first.relation.rows)

    def test_warm_execute_does_no_planning_work_cyclic(self, cyclic_db):
        session = EngineSession()
        prepared = session.prepare(cyclic_db)
        first = prepared.execute(cyclic_db)
        frozen = session.cache_info()
        for _ in range(3):
            again = prepared.execute(cyclic_db)
            assert session.cache_info() == frozen
            assert again.statistics.plan_cache_hit
            assert frozenset(again.relation.rows) == frozenset(first.relation.rows)

    @pytest.mark.parametrize("adaptive", [True, False])
    @pytest.mark.parametrize("shape", ["acyclic", "cyclic"])
    def test_warm_execute_rederives_no_structure(self, shape, adaptive,
                                                 acyclic_db, cyclic_db,
                                                 monkeypatch):
        database = acyclic_db if shape == "acyclic" else cyclic_db
        prepared = EngineSession(adaptive=adaptive).prepare(database,
                                                           ("C0", "C4"))
        assert prepared.kind == shape
        first = prepared.execute(database)

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm execute re-derived plan structure")

        for module in (yannakakis_module, cyclic_executor, session_module):
            monkeypatch.setattr(module, "schema_fingerprint", forbidden,
                                raising=False)
            monkeypatch.setattr(module, "Hypergraph", forbidden, raising=False)
        monkeypatch.setattr(columnar_executor, "compile_fold_program", forbidden)
        monkeypatch.setattr(CostAnnotation, "order_children", forbidden)
        for _ in range(2):
            again = prepared.execute(database)
            assert again.relation == first.relation
            assert again.relation.schema.attributes == ("C0", "C4")
            assert again.statistics.intermediate_sizes == \
                first.statistics.intermediate_sizes
            assert again.statistics.semijoin_steps == \
                first.statistics.semijoin_steps

    def test_static_prepared_execute_never_touches_the_planner(self, acyclic_db):
        session = EngineSession(adaptive=False)
        prepared = session.prepare(acyclic_db)
        frozen = session.cache_info()
        prepared.execute(acyclic_db)
        prepared.execute(acyclic_db)
        assert session.cache_info() == frozen

    def test_prepare_is_cached_per_schema_and_options(self, acyclic_db):
        session = EngineSession()
        first = session.prepare(acyclic_db, ("C0", "C5"))
        assert session.prepare(acyclic_db, ("C0", "C5")) is first
        assert session.prepare(acyclic_db, ("C0", "C5"), adaptive=False) is not first

    def test_catalog_measured_once_per_database(self, acyclic_db):
        session = EngineSession()
        catalog = session.catalog_for(acyclic_db)
        assert session.catalog_for(acyclic_db) is catalog
        assert session.catalog_for(acyclic_db, refresh=True) is not catalog

    def test_prepared_sample_limit_reaches_the_catalog(self, acyclic_db):
        prepared = EngineSession().prepare(acyclic_db, sample_limit=5)
        assert prepared.options.sample_limit == 5
        binding = prepared._binding_for(acyclic_db)
        assert not binding.catalog.is_exact  # sampled, not a full scan


_ACYCLIC_PHASES = ("prepare", "encode", "reduce", "fold", "decode")
_CYCLIC_PHASES = ("prepare", "materialise", "encode", "reduce", "fold", "decode")


class TestOneRun:
    """What one shared encode → reduce → fold → decode run must keep per dispatch."""

    @pytest.fixture()
    def four_cycle_db(self):
        schema = DatabaseSchema.from_hypergraph(k_cycle_hypergraph(4))
        return generate_database(schema, universe_rows=30, domain_size=5,
                                 dangling_fraction=0.3, seed=1)

    def test_cyclic_cache_window_counts_materialise(self, four_cycle_db):
        clear_column_caches()
        prepared = EngineSession(adaptive=False).prepare(four_cycle_db)
        assert prepared.kind == "cyclic"
        cold = prepared.execute(four_cycle_db).statistics
        warm = prepared.execute(four_cycle_db).statistics
        # The cold run encodes the four relations inside the window
        # (materialise included); the warm run reuses the memoised clusters.
        assert (cold.index_cache_hits, cold.index_cache_misses) == (0, 4)
        assert (warm.index_cache_hits, warm.index_cache_misses) == (0, 0)

    def test_prepared_backend_covers_the_whole_cyclic_run(self, four_cycle_db,
                                                          monkeypatch):
        pytest.importorskip("numpy")
        seen = []

        def spying(module):
            real = module.active_column_backend

            def spy():
                backend = real()
                seen.append((module.__name__, backend.name))
                return backend
            return spy

        for module in (columnar_kernels, columnar_block, columnar_executor):
            monkeypatch.setattr(module, "active_column_backend", spying(module))
        clear_column_caches()
        prepared = EngineSession(adaptive=False).prepare(
            four_cycle_db, column_backend="array")
        tracer = Tracer()
        with use_tracer(tracer):
            result = prepared.execute(four_cycle_db)
        assert result.statistics.column_backend == "array"
        materialise = [record for record in tracer.records
                       if record["name"] == "materialise"]
        assert materialise[0]["attributes"]["cached"] is False
        assert any(name == columnar_kernels.__name__ for name, _ in seen)
        assert {backend for _, backend in seen} == {"array"}

    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("shape", ["acyclic", "cyclic"])
    def test_phases_and_spans(self, shape, adaptive, acyclic_db, cyclic_db):
        database = acyclic_db if shape == "acyclic" else cyclic_db
        phases = _ACYCLIC_PHASES if shape == "acyclic" else _CYCLIC_PHASES
        prepared = EngineSession(adaptive=adaptive).prepare(database,
                                                           ("C0", "C4"))
        assert prepared.kind == shape
        for _ in range(2):
            tracer = Tracer()
            with use_tracer(tracer):
                result = prepared.execute(database)
            assert tuple(name for name, _ in result.statistics.phase_times) \
                == phases
            (root,) = [record for record in tracer.records
                       if record["name"] == "execute"]
            children = [record["name"] for record in tracer.records
                        if record["parent_id"] == root["span_id"]]
            # An adaptive cyclic run's first execute annotates its quotient
            # between materialise and encode; nothing else joins the phases.
            assert tuple(name for name in children if name != "annotate") \
                == phases
            (prepare,) = [record for record in tracer.records
                          if record["name"] == "prepare"]
            attributes = prepare["attributes"]
            assert attributes["kind"] == shape
            assert attributes["adaptive"] is adaptive
            if shape == "cyclic":
                assert attributes["clusters"] == len(result.plan.clusters)
            else:
                assert "clusters" not in attributes


class TestPreparedCache:
    """One LRU holds every prepared query, query- and schema-sourced alike."""

    @staticmethod
    def chain_query():
        return ConjunctiveQuery.from_strings(
            ["x", "y"],
            body=[("R1", ["x", "b", "c"]), ("R2", ["b", "c", "d"]),
                  ("R3", ["c", "d", "y"])])

    def test_query_with_and_without_its_head_as_outputs_is_one_entry(self):
        session = EngineSession()
        query = self.chain_query()
        implicit = session.prepare(query)
        assert session.prepare(query, ("x", "y")) is implicit
        assert session.prepare(query) is implicit
        assert session.prepare(query, ("y", "x")) is not implicit

    def test_least_recently_used_source_is_evicted(self, acyclic_db):
        capacity = session_module._PREPARED_CACHE_CAPACITY
        session = EngineSession()
        queries = [self.chain_query() for _ in range(capacity // 2)]
        sources = [(query, {}) for query in queries] + [
            (acyclic_db, {"name": f"schema-{index}"})
            for index in range(capacity + 1 - len(queries))]
        prepared = [session.prepare(source, **kwargs)
                    for source, kwargs in sources[:capacity]]
        # Touch the oldest entry, so the second oldest is the LRU one.
        first_source, first_kwargs = sources[0]
        assert session.prepare(first_source, **first_kwargs) is prepared[0]
        last_source, last_kwargs = sources[capacity]
        session.prepare(last_source, **last_kwargs)
        assert f"prepared={capacity}" in session.describe()
        assert session.prepare(first_source, **first_kwargs) is prepared[0]
        assert session.prepare(sources[-2][0], **sources[-2][1]) is prepared[-1]
        second_source, second_kwargs = sources[1]
        assert session.prepare(second_source, **second_kwargs) is not prepared[1]

    def test_describe_and_clear_cover_the_one_cache(self, acyclic_db):
        session = EngineSession()
        query = self.chain_query()
        by_query = session.prepare(query)
        by_schema = session.prepare(acyclic_db, ("C0", "C5"))
        assert "prepared=2)" in session.describe()
        session.clear()
        assert "prepared=0)" in session.describe()
        assert session.prepare(query) is not by_query
        assert session.prepare(acyclic_db, ("C0", "C5")) is not by_schema


class TestExecuteMany:
    def test_batch_aggregates_per_database_runs(self, acyclic_db):
        other = acyclic_db.with_relation(
            next(iter(acyclic_db)).with_rows(list(next(iter(acyclic_db)).rows)[:5]))
        session = EngineSession()
        prepared = session.prepare(acyclic_db, ("C0", "C5"))
        batch = prepared.execute_many([acyclic_db, other, acyclic_db])
        assert len(batch) == 3
        stats = batch.statistics
        assert isinstance(stats, BatchStatistics)
        assert stats.labels == ("db0", "db1", "db2")
        assert stats.output_size == sum(run.output_size for run in stats.runs)
        assert stats.max_intermediate == max(run.max_intermediate
                                             for run in stats.runs)
        assert batch.relations[0].rows == batch.relations[2].rows

    def test_batch_repeats_hit_the_warm_path(self, acyclic_db):
        session = EngineSession()
        prepared = session.prepare(acyclic_db, ("C0", "C5"))
        prepared.execute(acyclic_db)
        frozen = session.cache_info()
        batch = prepared.execute_many([acyclic_db] * 4)
        assert session.cache_info() == frozen
        assert batch.statistics.plan_cache_hit

    def test_custom_labels(self, acyclic_db):
        prepared = EngineSession().prepare(acyclic_db)
        batch = prepared.execute_many([acyclic_db], labels=["prod"])
        assert batch.statistics.labels == ("prod",)
        with pytest.raises(ValueError):
            prepared.execute_many([acyclic_db], labels=["a", "b"])


class TestExplain:
    def test_explain_without_database_describes_structure(self, acyclic_db):
        session = EngineSession()
        prepared = session.prepare(acyclic_db, ("C0", "C5"))
        text = prepared.explain()
        assert "acyclic dispatch" in text
        assert "ExecutionPlan" in text
        assert "C0" in text

    def test_explain_with_database_includes_annotation(self, acyclic_db):
        session = EngineSession()
        prepared = session.prepare(acyclic_db, ("C0", "C5"))
        text = prepared.explain(acyclic_db)
        assert "cost annotation" in text or "rows" in text

    def test_explain_cyclic(self, cyclic_db):
        text = EngineSession().explain(cyclic_db, cyclic_db)
        assert "cyclic dispatch" in text

    def test_session_explain_convenience(self, acyclic_db):
        assert "PreparedQuery" in EngineSession().explain(acyclic_db)


class TestOptionsPrecedence:
    def test_session_defaults_apply(self):
        session = EngineSession(adaptive=False, sample_limit=5)
        assert session.options.adaptive is False
        assert session.options.sample_limit == 5

    def test_options_object_replaces_session_defaults(self, acyclic_db):
        session = EngineSession(adaptive=False, check_reduction=True)
        prepared = session.prepare(acyclic_db,
                                   options=ExecutionOptions(adaptive=True))
        # options= replaces wholesale: check_reduction falls back to the
        # ExecutionOptions default, not the session's.
        assert prepared.options.adaptive is True
        assert prepared.options.check_reduction is False

    def test_keyword_overrides_win_over_options_object(self, acyclic_db):
        session = EngineSession()
        prepared = session.prepare(
            acyclic_db, options=ExecutionOptions(adaptive=True,
                                                 check_reduction=True),
            adaptive=False)
        assert prepared.options.adaptive is False
        assert prepared.options.check_reduction is True

    def test_keyword_overrides_win_over_session_defaults(self, acyclic_db):
        session = EngineSession(adaptive=True)
        prepared = session.prepare(acyclic_db, adaptive=False)
        assert prepared.options.adaptive is False

    def test_unknown_option_raises(self, acyclic_db):
        with pytest.raises(TypeError):
            EngineSession().prepare(acyclic_db, turbo=True)
        with pytest.raises(TypeError):
            ExecutionOptions().merged(nope=1)


class TestPersistence:
    def test_save_load_round_trip_through_the_session(self, acyclic_db,
                                                      cyclic_db, tmp_path):
        serving = EngineSession()
        serving.prepare(acyclic_db, ("C0", "C5")).execute(acyclic_db)
        serving.prepare(cyclic_db).execute(cyclic_db)
        path = tmp_path / "plans.json"
        saved = serving.save(path)
        # Catalog-chosen cyclic cover variants are derived per database and
        # intentionally left out of the dump; everything else persists.
        assert 0 < saved <= serving.cache_info().size

        restarted = EngineSession()
        compiled = restarted.load(path)
        assert compiled > 0
        misses_before = restarted.cache_info().misses
        prepared = restarted.prepare(acyclic_db, ("C0", "C5"))
        result = prepared.execute(acyclic_db)
        assert restarted.cache_info().misses == misses_before
        assert result.statistics.plan_cache_hit

    def test_load_missing_ok(self, tmp_path):
        assert EngineSession().load(tmp_path / "absent.json", missing_ok=True) == 0

    def test_clear_resets_everything(self, acyclic_db):
        session = EngineSession()
        session.prepare(acyclic_db).execute(acyclic_db)
        session.clear()
        info = session.cache_info()
        assert info.size == 0 and info.hits == 0 and info.misses == 0


class TestErrors:
    def test_execute_with_wrong_schema_raises(self, acyclic_db, cyclic_db):
        from repro.exceptions import SchemaError

        prepared = EngineSession().prepare(acyclic_db)
        with pytest.raises(SchemaError):
            prepared.execute(cyclic_db)

    def test_unknown_output_attribute_raises(self, acyclic_db):
        from repro.exceptions import SchemaError

        with pytest.raises(SchemaError):
            EngineSession().prepare(acyclic_db, ("NOPE",))

    def test_mismatched_database_raises_on_every_execute(self, acyclic_db,
                                                         cyclic_db):
        from repro.exceptions import SchemaError

        session = EngineSession()
        for source, wrong in ((acyclic_db, cyclic_db), (cyclic_db, acyclic_db)):
            prepared = session.prepare(source)
            # A failed binding is not memoised, so the check runs every time.
            for _ in range(2):
                with pytest.raises(SchemaError,
                                   match="different schema fingerprint"):
                    prepared.execute(wrong)
            assert wrong not in prepared._bindings
            assert prepared.execute(source).relation == \
                session.prepare(source).execute(source).relation

    def test_execute_relations_rejects_mismatched_relations(self, acyclic_db,
                                                            cyclic_db):
        from repro.exceptions import SchemaError

        prepared = EngineSession().prepare(acyclic_db.relations(), ("C0",))
        for wrong in (cyclic_db.relations(), acyclic_db.relations()[:-1]):
            for _ in range(2):
                with pytest.raises(SchemaError, match="these relations'"):
                    prepared.execute_relations(wrong)
        assert prepared.execute_relations(acyclic_db.relations()).relation == \
            yannakakis_join(acyclic_db, ("C0",)).relation

    def test_unknown_output_attribute_raises_on_every_entry_point(
            self, acyclic_db, cyclic_db):
        from repro.exceptions import SchemaError

        session = EngineSession()
        for database in (acyclic_db, cyclic_db):
            relations = database.relations()
            calls = [
                lambda: session.prepare(database, ("C0", "NOPE")),
                lambda: session.prepare(database.schema, ("NOPE",)),
                lambda: session.prepare(relations, ("NOPE",)),
                lambda: session.execute(database, database, ("NOPE",)),
                lambda: session.execute_join(relations, ("NOPE",)),
                lambda: session.execute_join(relations, ("NOPE",),
                                             force_cyclic=True),
            ]
            for call in calls:
                with pytest.raises(SchemaError, match="not in the schema"):
                    call()
        query = ConjunctiveQuery.from_strings(
            ["x", "y"],
            body=[("R1", ["x", "b", "c"]), ("R2", ["b", "c", "d"]),
                  ("R3", ["c", "d", "y"])])
        with pytest.raises(SchemaError, match="not in the schema"):
            session.prepare(query, ("x", "nope"))

    def test_query_binding_checks_outputs_against_its_atom_relations(
            self, acyclic_db):
        from repro.exceptions import SchemaError

        query = ConjunctiveQuery.from_strings(
            ["x", "y"],
            body=[("R1", ["x", "b", "c"]), ("R2", ["b", "c", "d"]),
                  ("R3", ["c", "d", "y"])])
        session = EngineSession()
        good = session.prepare(query)
        # Outputs outside the atoms' variables cannot pass ``prepare``; a
        # hand-built prepared query shows the binding checks them anyway.
        bad = PreparedQuery(session, kind=good.kind, structure=good.structure,
                            hypergraph=query.hypergraph(),
                            output_attributes=("x", "nope"),
                            options=good.options, name="bad", query=query)
        for _ in range(2):
            with pytest.raises(SchemaError, match="not in the schema"):
                bad.execute(acyclic_db)
        assert frozenset(good.execute(acyclic_db).relation.rows) == \
            frozenset(query.evaluate(acyclic_db, engine="naive").rows)

    def test_prepare_rejects_garbage_source(self):
        from repro.exceptions import SchemaError

        with pytest.raises(SchemaError):
            EngineSession().prepare(42)

    def test_default_session_wraps_the_default_planner(self):
        assert default_session().planner is DEFAULT_PLANNER


class TestThreadSafety:
    def test_concurrent_plan_for_never_corrupts_the_lru(self):
        planner = QueryPlanner(capacity=4)
        hypergraphs = [random_acyclic_hypergraph(n % 5 + 1, max_arity=3, seed=n)
                       for n in range(24)]
        errors = []

        def worker(offset):
            try:
                for index in range(40):
                    planner.plan_for(hypergraphs[(offset + index) % len(hypergraphs)])
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        info = planner.cache_info()
        assert info.size <= info.capacity
        assert info.hits + info.misses == 8 * 40

    def test_concurrent_prepared_execute(self, acyclic_db):
        session = EngineSession()
        prepared = session.prepare(acyclic_db, ("C0", "C5"))
        expected = frozenset(prepared.execute(acyclic_db).relation.rows)
        errors = []

        def worker():
            try:
                for _ in range(10):
                    rows = frozenset(prepared.execute(acyclic_db).relation.rows)
                    assert rows == expected
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
