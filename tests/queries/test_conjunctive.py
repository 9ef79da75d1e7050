"""Unit tests for conjunctive queries (evaluation, containment, minimization)."""

from __future__ import annotations

import pytest

from repro.exceptions import QueryError
from repro.generators import generate_database, university_schema
from repro.queries import Atom, ConjunctiveQuery, Constant, find_query_homomorphism
from repro.queries.terms import DistinguishedVariable, NondistinguishedVariable


@pytest.fixture
def db():
    return generate_database(university_schema(), universe_rows=20, domain_size=5, seed=17)


@pytest.fixture
def student_teacher_query():
    return ConjunctiveQuery.from_strings(
        ["s", "t"], body=[("ENROL", ["s", "c"]), ("TEACHES", ["c", "t"])])


class TestConstruction:
    def test_from_strings_classifies_variables(self, student_teacher_query):
        atom = student_teacher_query.atoms[0]
        assert isinstance(atom.terms[0], DistinguishedVariable)
        assert isinstance(atom.terms[1], NondistinguishedVariable)

    def test_head_variable_must_occur_in_body(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery.from_strings(["x"], body=[("ENROL", ["s", "c"])])

    def test_query_needs_atoms(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery([], [])

    def test_render(self, student_teacher_query):
        text = student_teacher_query.render()
        assert text.startswith("Q(s, t) :-")
        assert "ENROL(s, _c)" in text

    def test_constants_in_body(self):
        query = ConjunctiveQuery.from_strings(
            ["s"], body=[("ENROL", ["s", Constant("db")])])
        assert isinstance(query.atoms[0].terms[1], Constant)


class TestHypergraphView:
    def test_query_hypergraph(self, student_teacher_query):
        hypergraph = student_teacher_query.hypergraph()
        assert hypergraph.num_edges == 2
        assert hypergraph.nodes == {"s", "c", "t"}

    def test_acyclic_query(self, student_teacher_query):
        assert student_teacher_query.is_acyclic()

    def test_cyclic_query(self):
        query = ConjunctiveQuery.from_strings(
            ["x"], body=[("R", ["x", "y"]), ("R", ["y", "z"]), ("R", ["z", "x"])])
        assert not query.is_acyclic()


class TestEvaluation:
    def test_join_query_matches_manual_join(self, db, student_teacher_query):
        from repro.relational import natural_join, project

        expected = project(natural_join(db["ENROL"], db["TEACHES"]), ["Student", "Teacher"])
        answers = student_teacher_query.evaluate(db)
        assert len(answers) == len(expected)

    def test_query_with_constant(self, db):
        some_course = next(iter(db["ENROL"]))["Course"]
        query = ConjunctiveQuery.from_strings(
            ["s"], body=[("ENROL", ["s", Constant(some_course)])])
        answers = query.evaluate(db)
        assert len(answers) >= 1

    def test_query_with_repeated_variable(self, db):
        query = ConjunctiveQuery.from_strings(
            ["s"], body=[("LIVES", ["s", "d"]), ("ENROL", ["s", "c"])])
        answers = query.evaluate(db)
        assert answers.attributes == ("s",)

    def test_arity_mismatch_detected(self, db):
        query = ConjunctiveQuery.from_strings(["s"], body=[("ENROL", ["s"])])
        with pytest.raises(QueryError):
            query.evaluate(db)

    def test_empty_relation_gives_empty_answer(self, db):
        emptied = db.with_relation(db["TEACHES"].with_rows([]))
        query = ConjunctiveQuery.from_strings(
            ["s", "t"], body=[("ENROL", ["s", "c"]), ("TEACHES", ["c", "t"])])
        assert len(query.evaluate(emptied)) == 0


class TestContainmentAndMinimization:
    def test_containment_of_more_constrained_query(self):
        broad = ConjunctiveQuery.from_strings(["x"], body=[("R", ["x", "y"])])
        narrow = ConjunctiveQuery.from_strings(["x"], body=[("R", ["x", "x"])])
        assert broad.contains(narrow)
        assert not narrow.contains(broad)

    def test_equivalence_of_renamed_queries(self):
        left = ConjunctiveQuery.from_strings(["x"], body=[("R", ["x", "y"])])
        right = ConjunctiveQuery.from_strings(["x"], body=[("R", ["x", "z"])])
        assert left.is_equivalent_to(right)

    def test_redundant_atom_removed(self):
        query = ConjunctiveQuery.from_strings(
            ["s", "t"],
            body=[("ENROL", ["s", "c"]), ("TEACHES", ["c", "t"]), ("ENROL", ["s", "c2"])])
        minimized = query.minimize()
        assert len(minimized.atoms) == 2
        assert minimized.is_equivalent_to(query)

    def test_non_redundant_query_unchanged(self, student_teacher_query):
        assert len(student_teacher_query.minimize().atoms) == 2

    def test_homomorphism_respects_constants(self):
        left = ConjunctiveQuery.from_strings(["x"], body=[("R", ["x", Constant(1)])])
        right = ConjunctiveQuery.from_strings(["x"], body=[("R", ["x", Constant(2)])])
        assert find_query_homomorphism(left, right) is None
        assert find_query_homomorphism(left, left) is not None

    def test_homomorphism_requires_same_head_arity(self):
        unary = ConjunctiveQuery.from_strings(["x"], body=[("R", ["x", "y"])])
        binary = ConjunctiveQuery.from_strings(["x", "y"], body=[("R", ["x", "y"])])
        assert find_query_homomorphism(unary, binary) is None


class TestEngineDispatch:
    """``evaluate(engine=…)`` routes acyclic queries through repro.engine."""

    def test_engines_agree_on_acyclic_query(self, db, student_teacher_query):
        naive = student_teacher_query.evaluate(db, engine="naive")
        fast = student_teacher_query.evaluate(db, engine="yannakakis")
        auto = student_teacher_query.evaluate(db)
        assert frozenset(naive.rows) == frozenset(fast.rows) == frozenset(auto.rows)
        assert fast.schema.attribute_set == naive.schema.attribute_set

    def test_cyclic_query_dispatches_to_cyclic_engine(self):
        from repro.generators import cyclic_supplier_schema
        from repro.telemetry import Tracer, use_tracer

        db = generate_database(cyclic_supplier_schema(), universe_rows=15,
                               domain_size=4, seed=3)
        query = ConjunctiveQuery.from_strings(
            ["s", "p"],
            body=[("SUPPLIES", ["s", "part"]), ("USED_IN", ["part", "p"]),
                  ("SERVES", ["p", "s"])])
        assert not query.is_acyclic()
        naive = query.evaluate(db, engine="naive")
        # A cyclic run opens its prepare span as kind "cyclic" and
        # materialises the clusters; the naive plan records neither.
        tracer = Tracer()
        with use_tracer(tracer):
            fast = query.evaluate(db, engine="yannakakis")
        assert frozenset(naive.rows) == frozenset(fast.rows)
        names = [record["name"] for record in tracer.records]
        kinds = [record["attributes"].get("kind") for record in tracer.records
                 if record["name"] == "prepare"]
        assert "materialise" in names and "cyclic" in kinds, \
            "cyclic queries must dispatch to the cyclic subsystem, not naive"

    def test_cyclic_engine_can_be_forced_on_acyclic_query(self, db, student_teacher_query):
        naive = student_teacher_query.evaluate(db, engine="naive")
        forced = student_teacher_query.evaluate(db, engine="cyclic")
        assert frozenset(naive.rows) == frozenset(forced.rows)

    def test_cyclic_query_with_constant_atom(self):
        from repro.generators import cyclic_supplier_schema

        db = generate_database(cyclic_supplier_schema(), universe_rows=15,
                               domain_size=4, seed=3)
        some_row = next(iter(db["SUPPLIES"]))
        query = ConjunctiveQuery.from_strings(
            ["s", "p"],
            body=[("SUPPLIES", ["s", "part"]), ("USED_IN", ["part", "p"]),
                  ("SERVES", ["p", "s"]),
                  ("SUPPLIES", [Constant(some_row["Supplier"]),
                                Constant(some_row["Part"])])])
        naive = query.evaluate(db, engine="naive")
        default = query.evaluate(db)
        assert frozenset(naive.rows) == frozenset(default.rows)

    def test_engine_handles_constants_and_repeated_variables(self, db):
        some_course = next(iter(db["ENROL"]))["Course"]
        query = ConjunctiveQuery.from_strings(
            ["s", "t"],
            body=[("ENROL", ["s", Constant(some_course)]),
                  ("TEACHES", [Constant(some_course), "t"])])
        naive = query.evaluate(db, engine="naive")
        fast = query.evaluate(db, engine="yannakakis")
        assert frozenset(naive.rows) == frozenset(fast.rows)

    def test_engine_empty_relation_gives_empty_answer(self, db, student_teacher_query):
        emptied = db.with_relation(db["TEACHES"].with_rows([]))
        assert len(student_teacher_query.evaluate(emptied, engine="yannakakis")) == 0

    def test_unknown_engine_rejected(self, db, student_teacher_query):
        with pytest.raises(QueryError):
            student_teacher_query.evaluate(db, engine="warp-drive")

    def test_all_constant_atom_does_not_crash_default_path(self, db):
        # An all-constant atom contributes an *empty* hypergraph edge; GYO
        # calls the query acyclic while the planner's join-tree construction
        # refuses it, so the default path reroutes through the cyclic
        # subsystem (which folds the empty edge into a cluster).
        some_row = next(iter(db["TEACHES"]))
        query = ConjunctiveQuery.from_strings(
            ["s"],
            body=[("ENROL", ["s", "c"]),
                  ("TEACHES", [Constant(some_row["Course"]),
                               Constant(some_row["Teacher"])])])
        default = query.evaluate(db)
        naive = query.evaluate(db, engine="naive")
        assert frozenset(default.rows) == frozenset(naive.rows)
        assert len(default) > 0


class TestAdaptiveEvaluation:
    def _query_and_db(self):
        database = generate_database(university_schema(), universe_rows=25,
                                     domain_size=4, dangling_fraction=0.4, seed=9)
        relations = {schema.name: schema for schema in university_schema()}
        name = next(iter(relations))
        arity = relations[name].arity
        query = ConjunctiveQuery.from_strings(
            [f"v0"], body=[(name, [f"v{i}" for i in range(arity)])], name="Q")
        return query, database

    def test_adaptive_and_static_answers_agree(self):
        query, database = self._query_and_db()
        adaptive = query.evaluate(database)
        static = query.evaluate(database, adaptive=False)
        naive = query.evaluate(database, engine="naive")
        assert frozenset(adaptive.rows) == frozenset(static.rows) \
            == frozenset(naive.rows)

    def test_adaptive_flag_reaches_both_dispatch_paths(self):
        query, database = self._query_and_db()
        for engine in ("auto", "cyclic"):
            assert frozenset(query.evaluate(database, engine=engine).rows) \
                == frozenset(query.evaluate(database, engine=engine,
                                            adaptive=False).rows)
