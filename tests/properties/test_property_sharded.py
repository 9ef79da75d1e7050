"""Property-based equivalence: sharded execution vs the unsharded engine.

Sharding changes only *where* the reducer + fold run — each shard evaluates
the same mode-agnostic drivers over a hash co-partitioned slice, and the
merge deduplicates — so on any workload, acyclic or cyclic, for any shard
count and either executor, ``ExecutionOptions(shards=N)`` must produce a
relation byte-identical to the unsharded engine: same rows, same schema
attribute *order*, same output/input row accounting.

The second half pins the transport: :class:`ColumnBlock` (and the
``_ColumnStorage`` underneath) must survive a pickle round trip with its
vocabulary intact, because that is exactly what the process executor ships
to its workers.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import EngineSession
from repro.engine.columnar.block import block_for
from repro.engine.sharded import shutdown_shard_executors

from .strategies import skewed_acyclic_databases, skewed_cyclic_databases

COMMON_SETTINGS = settings(max_examples=15, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])
#: Worker processes are long-lived (registry-pooled) but every example still
#: crosses the pipe twice per shard, so the process suite runs fewer cases.
PROCESS_SETTINGS = settings(max_examples=6, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])

SHARD_COUNTS = st.sampled_from((1, 2, 7))


@pytest.fixture(scope="module", autouse=True)
def _stop_workers_afterwards():
    yield
    shutdown_shard_executors()


def _assert_identical(sharded, baseline):
    assert frozenset(sharded.relation.rows) == frozenset(baseline.relation.rows)
    assert sharded.relation.schema.attributes == \
        baseline.relation.schema.attributes
    assert sharded.relation.name == baseline.relation.name
    assert sharded.statistics.output_size == baseline.statistics.output_size
    assert sharded.statistics.input_sizes == baseline.statistics.input_sizes


def _run_pair(database, *, shards, shard_executor, **options):
    baseline = EngineSession(**options).prepare(database).execute(database)
    sharded = EngineSession(shards=shards, shard_executor=shard_executor,
                            **options).prepare(database).execute(database)
    return sharded, baseline


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_acyclic_databases(), shards=SHARD_COUNTS)
def test_sharded_acyclic_matches_unsharded_thread(database, shards):
    sharded, baseline = _run_pair(database, shards=shards,
                                  shard_executor="thread")
    _assert_identical(sharded, baseline)
    # No attribute shared by two relations → the partition degenerates to a
    # single slice and the statistics honestly record one shard.
    assert sharded.statistics.shards in (1, shards)
    assert sharded.statistics.shard_executor == "thread"
    assert len(sharded.statistics.shard_row_counts) == \
        sharded.statistics.shards


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_cyclic_databases(), shards=SHARD_COUNTS)
def test_sharded_cyclic_matches_unsharded_thread(database, shards):
    sharded, baseline = _run_pair(database, shards=shards,
                                  shard_executor="thread")
    _assert_identical(sharded, baseline)
    assert sharded.statistics.plan_name.startswith("engine-sharded-cyclic")


@pytest.mark.slow
@PROCESS_SETTINGS
@given(database=skewed_acyclic_databases(), shards=SHARD_COUNTS)
def test_sharded_acyclic_matches_unsharded_process(database, shards):
    sharded, baseline = _run_pair(database, shards=shards,
                                  shard_executor="process")
    _assert_identical(sharded, baseline)
    assert sharded.statistics.shard_executor == "process"


@pytest.mark.slow
@PROCESS_SETTINGS
@given(database=skewed_cyclic_databases(), shards=st.sampled_from((2, 7)))
def test_sharded_cyclic_matches_unsharded_process(database, shards):
    sharded, baseline = _run_pair(database, shards=shards,
                                  shard_executor="process")
    _assert_identical(sharded, baseline)


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_acyclic_databases(), shards=SHARD_COUNTS,
       adaptive=st.booleans())
def test_sharded_projection_matches_unsharded(database, shards, adaptive):
    from repro.core.nodes import sorted_nodes

    attributes = sorted_nodes(database.schema.attributes)
    wanted = attributes[:max(1, len(attributes) // 2)]
    baseline = EngineSession(adaptive=adaptive).prepare(
        database, wanted).execute(database)
    sharded = EngineSession(shards=shards, adaptive=adaptive).prepare(
        database, wanted).execute(database)
    _assert_identical(sharded, baseline)


@pytest.mark.slow
@COMMON_SETTINGS
@given(database=skewed_acyclic_databases())
def test_column_blocks_survive_a_pickle_round_trip(database):
    """The process executor's transport: blocks must decode unchanged."""
    for relation in database.relations():
        block = block_for(relation)
        clone = pickle.loads(pickle.dumps(block))
        assert clone.attributes == block.attributes
        assert len(clone) == len(block)
        decoded = clone.to_relation(relation.name)
        assert frozenset(decoded.rows) == frozenset(relation.rows)
        assert decoded.schema.attributes == block.attributes
        # Same process, same interner: the remapped ids are the originals.
        for attribute in block.attributes:
            assert tuple(clone.column(attribute)) == \
                tuple(block.column(attribute))
