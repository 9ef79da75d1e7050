"""Unit tests for the Database container and its whole-database operations."""

from __future__ import annotations

import pytest

from repro.exceptions import SchemaError
from repro.generators import generate_database, university_schema
from repro.relational import Database, DatabaseSchema, Relation, RelationSchema


@pytest.fixture
def toy_schema():
    return DatabaseSchema.from_dict({"R": ["A", "B"], "S": ["B", "C"]}, name="toy")


@pytest.fixture
def toy_db(toy_schema):
    return Database.from_tuples(toy_schema, {
        "R": [(1, "x"), (2, "y")],
        "S": [("x", True), ("z", False)],
    })


class TestConstruction:
    def test_from_tuples(self, toy_db):
        assert len(toy_db) == 2
        assert len(toy_db["R"]) == 2

    def test_missing_instance_rejected(self, toy_schema):
        with pytest.raises(SchemaError):
            Database(toy_schema, {"R": Relation.empty(toy_schema.relation("R"))})

    def test_extra_instance_rejected(self, toy_schema):
        relations = {
            "R": Relation.empty(toy_schema.relation("R")),
            "S": Relation.empty(toy_schema.relation("S")),
            "T": Relation.empty(RelationSchema.of("T", ["Z"])),
        }
        with pytest.raises(SchemaError):
            Database(toy_schema, relations)

    def test_scheme_mismatch_rejected(self, toy_schema):
        relations = {
            "R": Relation.empty(RelationSchema.of("R", ["A", "Z"])),
            "S": Relation.empty(toy_schema.relation("S")),
        }
        with pytest.raises(SchemaError):
            Database(toy_schema, relations)

    def test_from_rows_defaults_to_empty(self, toy_schema):
        db = Database.from_rows(toy_schema, {})
        assert db.total_rows() == 0


class TestAccessors:
    def test_relation_lookup(self, toy_db):
        assert toy_db.relation("R") is toy_db["R"]
        with pytest.raises(SchemaError):
            toy_db.relation("MISSING")

    def test_iteration_follows_schema_order(self, toy_db):
        assert [relation.name for relation in toy_db] == ["R", "S"]

    def test_hypergraph(self, toy_db):
        assert toy_db.hypergraph.edge_set == frozenset({frozenset({"A", "B"}),
                                                        frozenset({"B", "C"})})

    def test_relations_for_edge(self, toy_db):
        matches = toy_db.relations_for_edge({"A", "B"})
        assert [relation.name for relation in matches] == ["R"]

    def test_with_relation(self, toy_db, toy_schema):
        replaced = toy_db.with_relation(
            Relation.from_tuples(toy_schema.relation("R"), [(9, "q")]))
        assert len(replaced["R"]) == 1
        assert len(toy_db["R"]) == 2  # the original is untouched

    def test_with_relation_unknown(self, toy_db):
        with pytest.raises(SchemaError):
            toy_db.with_relation(Relation.empty(RelationSchema.of("Z", ["A"])))

    def test_describe_and_repr(self, toy_db):
        assert "R(A, B)" in toy_db.describe()
        assert "R:2" in repr(toy_db)


class TestWholeDatabaseOperations:
    def test_universal_join(self, toy_db):
        universe = toy_db.universal_join()
        # Only ("1", x) joins with ("x", True).
        assert len(universe) == 1
        assert universe.schema.attribute_set == frozenset({"A", "B", "C"})

    def test_consistency_flags(self, toy_db):
        assert not toy_db.is_pairwise_consistent()
        assert not toy_db.is_globally_consistent()
        assert toy_db.dangling_tuple_count() == 2

    def test_generated_consistent_database(self):
        db = generate_database(university_schema(), universe_rows=15, seed=3)
        assert db.is_globally_consistent()
        assert db.is_pairwise_consistent()
        assert db.dangling_tuple_count() == 0

    def test_generated_database_with_dangling(self):
        db = generate_database(university_schema(), universe_rows=15,
                               dangling_fraction=0.5, seed=3)
        assert db.dangling_tuple_count() > 0
        assert not db.is_globally_consistent()


class TestStatisticsCatalog:
    def test_catalog_measures_every_relation(self):
        database = generate_database(university_schema(), universe_rows=12, seed=1)
        catalog = database.statistics_catalog()
        assert len(catalog) == len(database.relations())
        for relation in database.relations():
            assert catalog.cardinality(relation.schema.attribute_set) == len(relation)

    def test_catalog_is_cached_per_instance(self):
        database = generate_database(university_schema(), universe_rows=12, seed=1)
        assert database.statistics_catalog() is database.statistics_catalog()

    def test_with_relation_updates_the_catalog_incrementally(self):
        database = generate_database(university_schema(), universe_rows=12, seed=1)
        parent_catalog = database.statistics_catalog()
        replaced = next(iter(database))
        shrunk = replaced.with_rows(list(replaced.rows)[: max(1, len(replaced) // 2)])
        derived = database.with_relation(shrunk)

        # The write path itself measures nothing — the replaced scheme is
        # only marked stale, and the re-measure happens on first access.
        assert getattr(derived, "_catalog_cache", None) is None
        derived_catalog = derived.statistics_catalog()
        edge = replaced.schema.attribute_set
        assert derived_catalog.cardinality(edge) == len(shrunk)
        # Every other scheme's statistics carry over from the parent catalog
        # untouched (same objects — nothing was re-measured).
        for relation in derived:
            if relation.schema.attribute_set == edge:
                continue
            assert derived_catalog.statistics_for(relation.schema.attribute_set) \
                is parent_catalog.statistics_for(relation.schema.attribute_set)

    def test_with_relation_without_a_measured_catalog_stays_lazy(self):
        database = generate_database(university_schema(), universe_rows=12, seed=1)
        replaced = next(iter(database))
        derived = database.with_relation(replaced.with_rows(list(replaced.rows)[:3]))
        assert getattr(derived, "_catalog_cache", None) is None
        assert derived.statistics_catalog().cardinality(
            replaced.schema.attribute_set) == 3

    def test_chained_updates_accumulate_and_measure_once_on_read(self):
        database = generate_database(university_schema(), universe_rows=12, seed=1)
        parent_catalog = database.statistics_catalog()
        relations = list(database)
        first, second = relations[0], relations[1]
        chained = database \
            .with_relation(first.with_rows(list(first.rows)[:4])) \
            .with_relation(second.with_rows(list(second.rows)[:3]))
        base, stale = chained._catalog_pending
        assert stale == {first.schema.attribute_set, second.schema.attribute_set}
        catalog = chained.statistics_catalog()
        assert catalog.cardinality(first.schema.attribute_set) == 4
        assert catalog.cardinality(second.schema.attribute_set) == 3
        for relation in chained:
            if relation.schema.attribute_set in stale:
                continue
            assert catalog.statistics_for(relation.schema.attribute_set) \
                is parent_catalog.statistics_for(relation.schema.attribute_set)
