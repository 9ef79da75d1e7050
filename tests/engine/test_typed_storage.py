"""Typed id-array storage: backend registry, identity fast paths, caches,
deferred decoding, and the operational reporting around all of it."""

from __future__ import annotations

import gc
import pickle
import platform
from array import array
from dataclasses import fields

import pytest

from repro.engine import EngineSession, ExecutionOptions
from repro.engine.columnar import (
    ColumnBlock,
    available_column_backends,
    block_for,
    clear_column_caches,
    column_cache_info,
    default_column_backend,
    merge_blocks_by_scheme,
    resolve_column_backend,
    semijoin_blocks,
    set_default_column_backend,
    use_column_backend,
)
from repro.engine.columnar.block import _ColumnStorage
from repro.generators import chain_hypergraph, generate_database
from repro.relational import DatabaseSchema, Relation, RelationSchema

from properties.strategies import rebound

NUMPY_INSTALLED = "numpy" in available_column_backends()

#: Allocation counts read off ``gc.get_count()`` are CPython's.
cpython_only = pytest.mark.skipif(
    platform.python_implementation() != "CPython",
    reason="counts collector-tracked allocations the way CPython does")


@pytest.fixture()
def acyclic_db():
    hypergraph = chain_hypergraph(4, arity=3, overlap=2)
    schema = DatabaseSchema.from_hypergraph(hypergraph)
    return generate_database(schema, universe_rows=40, domain_size=4,
                             dangling_fraction=0.4, seed=11)


@pytest.fixture
def r_ab():
    return Relation.from_tuples(RelationSchema.of("R", ("A", "B")),
                                [(1, "x"), (2, "y"), (3, "z")])


@pytest.fixture
def s_bc():
    return Relation.from_tuples(RelationSchema.of("S", ("B", "C")),
                                [("x", 10), ("x", 11), ("z", 12)])


class TestBackendRegistry:
    def test_array_backend_is_always_available(self):
        assert "array" in available_column_backends()

    def test_numpy_backend_tracks_the_import(self):
        try:
            import numpy  # noqa: F401
            importable = True
        except ImportError:
            importable = False
        assert ("numpy" in available_column_backends()) == importable

    def test_resolve_by_name_and_unknown_name(self):
        assert resolve_column_backend("array").name == "array"
        with pytest.raises(ValueError, match="unknown column backend"):
            resolve_column_backend("bogus")

    def test_none_resolves_to_the_active_default(self):
        assert resolve_column_backend(None).name == default_column_backend()

    def test_use_column_backend_overrides_and_restores(self):
        before = default_column_backend()
        with use_column_backend(resolve_column_backend("array")) as active:
            assert active.name == "array"
            assert resolve_column_backend(None) is active
        assert resolve_column_backend(None).name == before

    def test_set_default_returns_the_previous_default(self):
        previous = set_default_column_backend("array")
        try:
            assert default_column_backend() == "array"
        finally:
            set_default_column_backend(previous)


class TestIdentityFastPaths:
    def test_semijoin_fixpoint_returns_the_left_block_itself(self, r_ab, s_bc):
        left = block_for(r_ab)
        wide = block_for(Relation.from_tuples(
            RelationSchema.of("T", ("B",)), [("x",), ("y",), ("z",)]))
        assert semijoin_blocks(left, wide) is left

    def test_merge_by_scheme_passes_single_blocks_through(self, r_ab, s_bc):
        merged = merge_blocks_by_scheme([r_ab, s_bc])
        assert merged[frozenset(("A", "B"))] is block_for(r_ab)
        assert merged[frozenset(("B", "C"))] is block_for(s_bc)

    def test_intersect_subset_fast_path_reuses_the_block(self, r_ab):
        subset = Relation.from_tuples(r_ab.schema, [(1, "x"), (3, "z")])
        scheme = r_ab.schema.attribute_set
        narrowed = merge_blocks_by_scheme([r_ab, subset])[scheme]
        assert frozenset(narrowed.to_relation().rows) == frozenset(subset.rows)
        # And intersecting with a superset filters nothing — same block back.
        assert merge_blocks_by_scheme([subset, r_ab])[scheme] is block_for(subset)

    def test_select_on_own_selection_is_self(self, r_ab):
        base = block_for(r_ab)
        sub = base.select([0, 2])
        assert sub.select(sub.positions) is sub


class TestKeysetCacheCounters:
    def test_warm_runs_hit_the_keyset_cache(self, acyclic_db):
        clear_column_caches()
        session = EngineSession()
        prepared = session.prepare(acyclic_db, ("C0", "C5"))
        prepared.execute(acyclic_db)
        cold = column_cache_info()
        assert cold["keyset_misses"] > 0
        # A new binding over the same relations runs every semijoin again,
        # each answered from its storage's memo.
        prepared.execute(rebound(acyclic_db))
        warm = column_cache_info()
        assert warm["keyset_hits"] > cold["keyset_hits"]
        assert warm["keyset_misses"] == cold["keyset_misses"]
        # A warm execute on the first binding runs none.
        prepared.execute(acyclic_db)
        served = column_cache_info()
        assert (served["keyset_hits"], served["keyset_misses"]) == \
            (warm["keyset_hits"], warm["keyset_misses"])

    def test_monitor_exports_keyset_counters(self, acyclic_db):
        session = EngineSession(monitor=True)
        session.prepare(acyclic_db, ("C0", "C5")).execute(acyclic_db)
        values = session.monitor.collect()
        info = column_cache_info()
        assert values["engine_cache_hits_total{cache=keyset}"] == \
            info["keyset_hits"]
        assert values["engine_cache_misses_total{cache=keyset}"] == \
            info["keyset_misses"]
        assert "# TYPE engine_cache_hits_total counter" in \
            session.metrics.render_prometheus()


class TestBackendReporting:
    def test_statistics_carry_the_active_backend(self, acyclic_db):
        result = EngineSession(column_backend="array") \
            .prepare(acyclic_db, ("C0", "C5")).execute(acyclic_db)
        assert result.statistics.column_backend == "array"
        assert "backend=array" in result.statistics.describe()

    @pytest.mark.skipif(not NUMPY_INSTALLED, reason="numpy not installed")
    def test_numpy_backend_is_reported_when_forced(self, acyclic_db):
        result = EngineSession(column_backend="numpy") \
            .prepare(acyclic_db, ("C0", "C5")).execute(acyclic_db)
        assert result.statistics.column_backend == "numpy"


class TestExecutionOptionsValidation:
    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="column backend"):
            ExecutionOptions(column_backend="bogus")

    @pytest.mark.skipif(NUMPY_INSTALLED, reason="numpy is installed")
    def test_a_backend_that_is_not_installed_is_rejected(self):
        # Over the service this is a 400 at prepare, not a 500 at execute.
        with pytest.raises(ValueError, match="not available"):
            ExecutionOptions(column_backend="numpy")

    def test_unknown_decode_mode_is_rejected(self):
        with pytest.raises(ValueError, match="decode"):
            ExecutionOptions(decode="bogus")

    @pytest.mark.parametrize("field, value, error", [
        ("adaptive", "yes", TypeError),
        ("check_reduction", 1, TypeError),
        ("force_cyclic", None, TypeError),
        ("cluster_row_bound", True, ValueError),
        ("cluster_row_bound", -1, ValueError),
        ("cluster_row_bound", "10", ValueError),
        ("deadline_seconds", float("nan"), ValueError),
        ("deadline_seconds", float("inf"), ValueError),
        ("deadline_seconds", True, ValueError),
        # JSON accepts an integer no float can hold.
        ("deadline_seconds", 10 ** 400, ValueError),
    ])
    def test_a_bad_value_is_rejected_when_the_options_are_built(
            self, field, value, error):
        with pytest.raises(error, match=field):
            ExecutionOptions(**{field: value})
        with pytest.raises(error, match=field):
            EngineSession().options.merged(**{field: value})

    def test_trace_is_not_an_option(self):
        # Tracing is ``use_tracer`` only; a session owns no tracer.
        assert "trace" not in {field.name for field in fields(ExecutionOptions)}
        with pytest.raises(TypeError):
            ExecutionOptions(trace=True)
        with pytest.raises(TypeError, match="trace"):
            EngineSession().options.merged(trace=True)
        with pytest.raises(TypeError, match="tracer"):
            EngineSession(tracer=object())


class TestBatchedKernels:
    """Every backend's whole-vector primitive against the per-row loop it replaced.

    Same positions in the same order, on skewed id columns (quadratic skew,
    like the engine's fan-out / junction chains).
    """

    @pytest.fixture(scope="class")
    def columns(self):
        import random

        rng = random.Random(8)
        skewed = lambda: int(512 * rng.random() ** 2)  # noqa: E731
        keys = frozenset(rng.sample(range(512), 64))
        return {"build": array("q", (skewed() for _ in range(400))),
                "probe": array("q", (skewed() for _ in range(2000))),
                "second": array("q", (skewed() for _ in range(2000))),
                "keys": keys, "key_codes": array("q", keys)}

    @pytest.fixture(params=sorted(available_column_backends()))
    def backend(self, request):
        return resolve_column_backend(request.param)

    def test_membership_filter(self, backend, columns):
        probe = columns["probe"]
        expected = array("q", (p for p in range(len(probe))
                               if probe[p] in columns["keys"]))
        key_set = backend.key_set(columns["key_codes"],
                                  range(len(columns["key_codes"])))
        kept = backend.filter_membership(probe, range(len(probe)), key_set)
        assert array("q", kept) == expected
        assert array("q", backend.take(probe, kept)) \
            == array("q", (probe[p] for p in expected))

    def test_join_probe(self, backend, columns):
        build, probe = columns["build"], columns["probe"]
        table = {}
        for p in range(len(build)):
            table.setdefault(build[p], []).append(p)
        pairs = [(match, p) for p in range(len(probe))
                 for match in table.get(probe[p], ())]
        left, right = backend.probe_table(
            backend.build_table(build, range(len(build))),
            probe, range(len(probe)))
        assert (array("q", left), array("q", right)) == (
            array("q", (match for match, _ in pairs)),
            array("q", (p for _, p in pairs)))

    def test_distinct_first_occurrence(self, backend, columns):
        pairs = list(zip(columns["probe"], columns["second"]))
        first = {}
        for p, pair in enumerate(pairs):
            first.setdefault(pair, p)
        kept = backend.first_occurrence([columns["probe"], columns["second"]],
                                        range(len(pairs)))
        assert array("q", kept) == array("q", first.values())


class TestDeferredDecoding:
    def test_block_decode_skips_the_relation(self, acyclic_db):
        session = EngineSession(decode="block")
        result = session.prepare(acyclic_db, ("C0", "C5")).execute(acyclic_db)
        assert result.relation is None
        assert result.block is not None
        assert result.statistics.output_size == len(result.block)

    def test_decoded_materialises_once_and_caches(self, acyclic_db):
        session = EngineSession(decode="block")
        result = session.prepare(acyclic_db, ("C0", "C5")).execute(acyclic_db)
        eager = EngineSession() \
            .prepare(acyclic_db, ("C0", "C5")).execute(acyclic_db)
        first = result.decoded()
        assert first is result.decoded()
        assert frozenset(first.rows) == frozenset(eager.relation.rows)
        assert first.schema.attributes == eager.relation.schema.attributes
        assert first.name == eager.relation.name

    def test_eager_results_decode_to_their_own_relation(self, acyclic_db):
        result = EngineSession() \
            .prepare(acyclic_db, ("C0", "C5")).execute(acyclic_db)
        assert result.decoded() is result.relation

    def test_batch_relations_decode_deferred_results(self, acyclic_db):
        session = EngineSession(decode="block")
        prepared = session.prepare(acyclic_db, ("C0", "C5"))
        batch = prepared.execute_many([acyclic_db, acyclic_db])
        assert all(result.relation is None for result in batch.results)
        eager = EngineSession() \
            .prepare(acyclic_db, ("C0", "C5")).execute(acyclic_db)
        for relation in batch.relations:
            assert frozenset(relation.rows) == frozenset(eager.relation.rows)

    def test_cyclic_block_decode(self):
        from repro.generators import triangle_core_chain
        schema = DatabaseSchema.from_hypergraph(triangle_core_chain(3))
        database = generate_database(schema, universe_rows=40, domain_size=4,
                                     dangling_fraction=0.4, seed=7)
        session = EngineSession(decode="block")
        prepared = session.prepare(database)
        assert prepared.kind == "cyclic"
        result = prepared.execute(database)
        assert result.relation is None
        eager = EngineSession() \
            .prepare(database).execute(database)
        assert frozenset(result.decoded().rows) == frozenset(eager.relation.rows)


class TestStorageTokens:
    """Cross-storage cache keys name a storage by serial, never by reference."""

    def test_a_dead_database_is_freed_by_refcount(self):
        # The reducer's two passes cache each neighbour's filtered selection
        # under the other; were the keys to hold the storages, every base
        # storage of the database would wait in a cycle for the collector.
        # (_ColumnStorage has no __weakref__ slot: observe the garbage.)
        schema = DatabaseSchema.from_hypergraph(
            chain_hypergraph(4, arity=3, overlap=2))

        def fresh_database():
            return generate_database(schema, universe_rows=40, domain_size=4,
                                     dangling_fraction=0.4, seed=11)

        prepared = EngineSession().prepare(fresh_database())
        gc.collect()
        flags = gc.get_debug()
        gc.disable()
        try:
            database = fresh_database()
            result = prepared.execute(database)
            assert len(result.relation) > 0
            del database, result
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [type(item).__name__ for item in gc.garbage
                      if isinstance(item, (_ColumnStorage, array))]
            assert leaked == []
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            gc.enable()

    def test_no_two_storages_share_a_token(self, r_ab, s_bc):
        blocks = [block_for(r_ab), block_for(s_bc),
                  ColumnBlock.from_columns("T", ("A",), {"A": [1, 2]})]
        tokens = [block.storage_token() for block in blocks]
        assert len(set(tokens)) == len(tokens)
        # ... while every view of one storage names it alike.
        base = blocks[0]
        assert base.select([0]).storage_token() == base.storage_token() \
            == base.rename("R2").project_onto(["A"]).storage_token()

    def test_a_block_does_not_pickle(self, r_ab):
        """Ids are local to one process: a block must not travel silently."""
        block = block_for(r_ab)
        for view in (block, block.select([0]), block.rename("R2")):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                with pytest.raises(TypeError):
                    pickle.dumps(view, protocol)


class TestSelectionKeys:
    def test_an_equal_selection_over_one_storage_hits_the_same_memo(
            self, r_ab, s_bc):
        """A key is the positions' bytes, so equal selections share entries."""
        clear_column_caches()
        try:
            block = block_for(r_ab)
            at = {block.value_at("A", position): position
                  for position in range(len(block))}
            positions = [at[3], at[2]]          # "z" has a partner, "y" none
            left = block.select(positions)
            right = block_for(s_bc)
            semijoined = semijoin_blocks(left, right)
            assert [row["A"] for row in semijoined.to_relation().rows] == [3]
            decoded = left.to_relation()
            info = column_cache_info()
            # A selection built afresh with the same positions computes its
            # own (equal) key and hits every entry the first one filed: the
            # semijoin outcome and the decode.
            again = block.rename("base").select(positions)
            assert again is not left
            assert again.selection_bytes() == left.selection_bytes()
            assert semijoin_blocks(again, right).selection_bytes() is \
                semijoined.selection_bytes()
            assert again.to_relation(left.name) is decoded
            now = column_cache_info()
            assert now["keyset_hits"] == info["keyset_hits"] + 1
            assert now["keyset_misses"] == info["keyset_misses"]
            assert now["relation_hits"] == info["relation_hits"] + 1
            assert now["relation_misses"] == info["relation_misses"]
            assert now["selection_keys"] == info["selection_keys"] + 1
        finally:
            clear_column_caches()


class TestDecodeAllocations:
    @cpython_only
    @pytest.mark.parametrize("selected", [False, True])
    def test_to_relation_keeps_two_tracked_allocations_per_row(self, selected):
        rows = 2_000
        block = ColumnBlock.from_columns(
            "R", ("B", "A"), {"A": list(range(rows)),
                              "B": [f"b{index}" for index in range(rows)]})
        if selected:
            block = block.select(range(0, rows, 2))
        block.to_relation()                 # fills the decoded-column cache
        gc.collect()
        gc.disable()
        try:
            before = gc.get_count()[0]
            relation = block.to_relation()
            kept = gc.get_count()[0] - before
        finally:
            gc.enable()
        assert len(relation) == len(block)
        # One Row and one values tuple per row; a constant for the rest.
        assert kept <= 2 * len(block) + 32
