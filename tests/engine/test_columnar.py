"""Unit tests for the columnar physical layer: blocks, kernels, the pipeline."""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

from repro.engine import EngineSession
from repro.engine.columnar import (
    ColumnBlock,
    block_for,
    clear_column_caches,
    column_cache_info,
    current_interner,
    merge_blocks_by_scheme,
    natural_join_blocks,
    peek_block,
    semijoin_blocks,
)
from repro.engine.columnar import block as block_module
from repro.engine.reducer import FullReducer
from repro.exceptions import SchemaError, UnknownAttributeError
from repro.relational import (
    Relation, RelationSchema, intersection, natural_join, project, semijoin,
)

from properties.strategies import rebound, semijoin_stable


@pytest.fixture
def r_ab():
    return Relation.from_tuples(RelationSchema.of("R", ("A", "B")),
                                [(1, "x"), (2, "y"), (3, "z")])


@pytest.fixture
def s_bc():
    return Relation.from_tuples(RelationSchema.of("S", ("B", "C")),
                                [("x", 10), ("x", 11), ("z", 12)])


class TestColumnBlock:
    def test_round_trip_is_identity(self, r_ab):
        block = ColumnBlock.from_relation(r_ab)
        assert block.to_relation() == r_ab
        assert block.attributes == r_ab.schema.attributes
        assert len(block) == 3

    def test_select_and_empty_are_zero_copy(self, r_ab):
        block = ColumnBlock.from_relation(r_ab)
        first = block.select(tuple(block.positions)[:1])
        assert len(first) == 1
        assert first.column("A") is block.column("A")
        assert len(block.empty()) == 0

    def test_project_keeps_block_column_order(self, r_ab):
        block = ColumnBlock.from_relation(r_ab)
        projected = block.project_onto({"B", "A"})
        assert projected.attributes == ("A", "B")
        assert projected.project_onto({"B"}).attributes == ("B",)
        with pytest.raises(UnknownAttributeError):
            block.project_onto({"Nope"})

    def test_projection_then_distinct_deduplicates(self):
        relation = Relation.from_tuples(RelationSchema.of("R", ("A", "B")),
                                        [(1, "x"), (1, "y"), (2, "x")])
        block = ColumnBlock.from_relation(relation).project_onto({"A"})
        assert len(block) == 3  # projection alone keeps positional duplicates
        distinct = block.distinct()
        assert len(distinct) == 2
        assert distinct.distinct() is distinct

    def test_rename_is_zero_copy(self, r_ab):
        block = ColumnBlock.from_relation(r_ab)
        renamed = block.rename("T")
        assert renamed.name == "T"
        assert renamed.column("A") is block.column("A")
        assert renamed.to_relation().name == "T"

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError):
            ColumnBlock.from_columns("R", ("A", "B"), {"A": [1, 2], "B": [1]})

    def test_key_codes_shared_across_blocks(self, r_ab, s_bc):
        left = ColumnBlock.from_relation(r_ab)
        right = ColumnBlock.from_relation(s_bc)
        left_codes = {left.column("B")[p]: left.key_codes(("B",))[p]
                      for p in left.positions}
        right_codes = {right.column("B")[p]: right.key_codes(("B",))[p]
                       for p in right.positions}
        for value in set(left_codes) & set(right_codes):
            assert left_codes[value] == right_codes[value]


class TestBlockCache:
    def test_block_for_is_cached_per_relation(self, r_ab):
        clear_column_caches()
        before = column_cache_info()
        first = block_for(r_ab)
        second = block_for(r_ab)
        assert first is second
        after = column_cache_info()
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] - before["misses"] == 1

    def test_peek_does_not_build(self):
        clear_column_caches()
        relation = Relation.from_tuples(RelationSchema.of("P", ("A",)), [(1,)])
        assert peek_block(relation) is None
        block_for(relation)
        assert peek_block(relation) is not None

    def test_value_equal_relations_get_their_own_blocks(self):
        # Regression: the cache was keyed by relation *value*, so S(B, A) was
        # handed R(A, B)'s block — name and column order included.
        clear_column_caches()
        before = column_cache_info()
        r = Relation.from_tuples(RelationSchema.of("R", ("A", "B")), [(1, 2)])
        s = Relation.from_tuples(RelationSchema.of("S", ("B", "A")), [(2, 1)])
        assert r == s
        r_block, s_block = block_for(r), block_for(s)
        assert r_block is not s_block
        assert (r_block.name, r_block.attributes) == ("R", ("A", "B"))
        assert (s_block.name, s_block.attributes) == ("S", ("B", "A"))
        decoded = block_for(s).to_relation()
        assert decoded.name == "S"
        assert decoded.schema.attributes == ("B", "A")
        assert decoded == s
        info = column_cache_info()
        assert (info["misses"] - before["misses"], info["hits"] - before["hits"],
                info["relations"]) == (2, 1, 2)

    def test_entry_is_dropped_with_its_relation(self, r_ab):
        clear_column_caches()
        block_for(r_ab)
        relation = Relation.from_tuples(RelationSchema.of("P", ("A",)), [(1,)])
        block_for(relation)
        assert column_cache_info()["relations"] == 2
        del relation
        gc.collect()
        assert column_cache_info()["relations"] == 1
        assert peek_block(r_ab) is not None

    def test_recycled_id_never_returns_a_stale_block(self):
        # An entry left under a dead relation's id (its finalizer not yet
        # run) must not answer for a new relation allocated at that address.
        clear_column_caches()
        dead = Relation.from_tuples(RelationSchema.of("Old", ("A",)), [(1,)])
        stale = ColumnBlock.from_relation(dead)
        dead_reference = weakref.ref(dead)
        del dead
        gc.collect()
        relation = Relation.from_tuples(RelationSchema.of("New", ("A",)), [(2,)])
        block_module._BLOCK_CACHE[id(relation)] = (dead_reference, stale)
        assert peek_block(relation) is None
        block = block_for(relation)
        assert block is not stale and block.name == "New"
        assert block.to_relation() == relation
        assert block_for(relation) is block

    def test_clear_empties_the_cache_and_swaps_the_generation(self, r_ab):
        before = block_for(r_ab)
        interner = current_interner()
        counts = column_cache_info()
        clear_column_caches()
        info = column_cache_info()
        # A clear drops the entries; the counts persist.
        assert (info["relations"], info["hits"], info["misses"]) == \
            (0, counts["hits"], counts["misses"])
        assert peek_block(r_ab) is None
        assert current_interner() is not interner
        after = block_for(r_ab)
        assert after is not before and after.interner is current_interner()
        assert before.to_relation() == r_ab  # a survivor still decodes

    def test_a_full_derived_cache_counts_the_entries_it_drops(self, r_ab):
        block = ColumnBlock.from_relation(r_ab)  # a storage of its own
        derived = block._storage._derived
        start = column_cache_info()["derived_evictions"]
        index = 0
        while len(derived) < block_module._DERIVED_CACHE_CAP:
            block.derived_put(("fill", index), index)
            index += 1
        assert column_cache_info()["derived_evictions"] == start
        assert block.derived_put(("overflow",), "kept") == "kept"
        assert column_cache_info()["derived_evictions"] == \
            start + block_module._DERIVED_CACHE_CAP
        assert list(derived) == [("overflow",)]
        clear_column_caches()
        assert column_cache_info()["derived_evictions"] == \
            start + block_module._DERIVED_CACHE_CAP

    def test_finalizer_under_the_held_cache_lock_does_not_deadlock(self):
        # The collector can run a dead relation's finalizer on an allocation
        # inside block_for, on the thread that already holds the cache lock.
        clear_column_caches()
        dropped = []

        def drop_while_locked():
            relation = Relation.from_tuples(RelationSchema.of("P", ("A",)), [(1,)])
            block_for(relation)
            key = id(relation)
            with block_module._BLOCK_CACHE_LOCK:
                del relation
                gc.collect()
                dropped.append(key not in block_module._BLOCK_CACHE)

        worker = threading.Thread(target=drop_while_locked, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert dropped == [True]

    def test_concurrent_block_for_loses_no_counter_increment(self, r_ab):
        clear_column_caches()
        counts = column_cache_info()
        threads, rounds = 8, 150
        shared_blocks, failures = [], []
        start = threading.Barrier(threads)

        def hammer(worker):
            try:
                start.wait(timeout=10)
                for index in range(rounds):
                    shared_blocks.append(block_for(r_ab))
                    short_lived = Relation.from_tuples(
                        RelationSchema.of("T", ("A", "B")), [(worker, index)])
                    block = block_for(short_lived)
                    assert block_for(short_lived) is block
                    assert block.to_relation() == short_lived
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=hammer, args=(worker,), daemon=True)
                       for worker in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert failures == []
        assert len(set(map(id, shared_blocks))) == 1
        gc.collect()
        info = column_cache_info()
        hits = info["hits"] - counts["hits"]
        misses = info["misses"] - counts["misses"]
        assert hits + misses == threads * rounds * 3
        assert misses >= threads * rounds + 1
        assert info["relations"] == 1


class TestKernels:
    def test_semijoin_matches_row_semantics(self, r_ab, s_bc):
        left, right = block_for(r_ab), block_for(s_bc)
        kept = semijoin_blocks(left, right).to_relation()
        assert {row["A"] for row in kept.rows} == {1, 3}

    def test_semijoin_identity_on_fixpoint(self, r_ab):
        left = block_for(r_ab)
        assert semijoin_blocks(left, left) is left

    def test_semijoin_empty_separator_degenerates(self, r_ab):
        left = block_for(r_ab)
        other = block_for(Relation.from_tuples(RelationSchema.of("T", ("Z",)), [(9,)]))
        assert semijoin_blocks(left, other) is left
        assert len(semijoin_blocks(left, other.empty())) == 0

    def test_explicit_separator_override(self, r_ab, s_bc):
        kept = semijoin_blocks(block_for(r_ab), block_for(s_bc), on=("B",))
        assert {row["A"] for row in kept.to_relation().rows} == {1, 3}

    def test_separator_override_must_be_in_both_schemes(self, r_ab, s_bc):
        with pytest.raises(UnknownAttributeError):
            semijoin_blocks(block_for(r_ab), block_for(s_bc), on=("C",))
        with pytest.raises(UnknownAttributeError):
            semijoin_blocks(block_for(r_ab), block_for(s_bc), on=("A",))

    def test_natural_join_matches_the_relational_join(self, r_ab, s_bc):
        block = natural_join_blocks(block_for(r_ab), block_for(s_bc))
        expected = natural_join(r_ab, s_bc)
        assert block.to_relation(expected.name) == expected
        assert block.attributes == expected.schema.attributes

    def test_natural_join_fused_projection_deduplicates(self, r_ab, s_bc):
        block = natural_join_blocks(block_for(r_ab), block_for(s_bc),
                                    project_onto=frozenset({"A", "C"}))
        expected = project(natural_join(r_ab, s_bc), ("A", "C"))
        assert frozenset(block.to_relation().rows) == frozenset(expected.rows)
        assert block.attributes == ("A", "C")

    def test_cartesian_product_without_separator(self, r_ab):
        other = block_for(Relation.from_tuples(RelationSchema.of("T", ("Z",)),
                                               [(9,), (10,)]))
        product = natural_join_blocks(block_for(r_ab), other)
        assert len(product) == 6
        assert product.attributes == ("A", "B", "Z")

    def test_zero_ary_projection_keeps_the_row_count(self, r_ab, s_bc):
        # Projecting every attribute away must still say whether rows
        # survived (the relational true/false boundary), not collapse to 0.
        joined = natural_join_blocks(block_for(r_ab), block_for(s_bc),
                                     project_onto=frozenset())
        assert joined.attributes == ()
        assert len(joined) == 1  # deduplicated "true"
        assert len(joined.to_relation("q")) == 1
        empty = natural_join_blocks(block_for(r_ab).empty(), block_for(s_bc),
                                    project_onto=frozenset())
        assert len(empty) == 0

    def test_intersect_and_merge_by_scheme(self, r_ab):
        same_scheme = Relation.from_tuples(RelationSchema.of("R2", ("A", "B")),
                                           [(1, "x"), (9, "q")])
        merged = merge_blocks_by_scheme([r_ab, same_scheme])
        (block,) = merged.values()
        assert {tuple(values) for values in block.iter_rows()} == {(1, "x")}
        assert frozenset(block.to_relation().rows) \
            == frozenset(intersection(r_ab, same_scheme).rows)


class TestReducerOnBlocks:
    def test_run_blocks_matches_relational_semijoins(self, r_ab, s_bc):
        from repro.core.join_tree import build_join_tree
        from repro.core.hypergraph import Hypergraph
        from repro.engine.reducer import ReductionTrace

        hypergraph = Hypergraph([frozenset({"A", "B"}), frozenset({"B", "C"})])
        reducer = FullReducer.from_join_tree(build_join_tree(hypergraph))
        blocks = {frozenset({"A", "B"}): block_for(r_ab),
                  frozenset({"B", "C"}): block_for(s_bc)}
        trace = ReductionTrace()
        reduced = reducer.run_blocks(blocks, trace=trace)
        # On a two-vertex tree full reduction is one semijoin each way.
        reduced_ab = semijoin(r_ab, s_bc)
        expected = {frozenset({"A", "B"}): reduced_ab,
                    frozenset({"B", "C"}): semijoin(s_bc, reduced_ab)}
        for edge, relation in expected.items():
            assert frozenset(reduced[edge].to_relation().rows) \
                == frozenset(relation.rows)
        assert trace.rows_removed == len(r_ab) + len(s_bc) \
            - sum(len(relation) for relation in expected.values())
        assert semijoin_stable(reduced, reducer.rooted)


class TestEvaluation:
    def test_boolean_query_is_one_row_iff_the_join_is_non_empty(self, university_database):
        """An empty projection is a boolean query: 1 row iff the join is non-empty."""
        result = EngineSession().prepare(university_database, ()) \
            .execute(university_database)
        assert len(result.relation) == 1

    def test_projection_excluding_a_component_still_gates_the_answer(self):
        """A disconnected component projected away still gates the answer."""
        relations = [
            Relation.from_tuples(RelationSchema.of("R", ("A", "B")), [(1, "x")]),
            Relation.from_tuples(RelationSchema.of("S", ("B", "C")), [("x", 5)]),
            Relation.from_tuples(RelationSchema.of("T", ("D", "E")), [(7, 8), (9, 10)]),
        ]
        session = EngineSession()
        assert len(session.execute_join(relations, ("A",)).relation) == 1
        # ... and an emptied component kills the answer.
        emptied = relations[:2] + [relations[2].with_rows([])]
        assert len(session.execute_join(emptied, ("A",)).relation) == 0

    def test_statistics_report_the_backend_and_cache_traffic(self, university_database):
        session = EngineSession()
        prepared = session.prepare(university_database)
        prepared.execute(university_database)
        # A warm run is served from its binding's memo: it looks up no block.
        warm = prepared.execute(university_database)
        assert (warm.statistics.index_cache_hits,
                warm.statistics.index_cache_misses) == (0, 0)
        # A new binding over the same relations re-encodes nothing: every
        # block comes from the cache.
        again = prepared.execute(rebound(university_database))
        assert again.statistics.index_cache_misses == 0
        assert again.statistics.index_cache_hits > 0
        assert f"backend={warm.statistics.column_backend}" \
            in warm.statistics.describe()
