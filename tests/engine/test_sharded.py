"""Unit tests for the shard-parallel execution layer.

Partitioner invariants, the versioned payload format, option plumbing, the
executor registry, both executors end to end, and the monitor/report
surfaces that expose shard accounting.
"""

from __future__ import annotations

import pickle

import pytest

from repro.analysis import query_log_table, statistics_table
from repro.engine.columnar.block import block_for
from repro.engine.session import EngineSession, ExecutionOptions
from repro.engine.sharded import (
    FORMAT_VERSION,
    MAGIC,
    choose_shard_key,
    dump_blocks,
    effective_shard_executor,
    effective_shards,
    load_blocks,
    next_generation_token,
    partition_database,
    partition_relations,
    shard_executor_for,
    shutdown_shard_executors,
)
from repro.exceptions import ShardPayloadError
from repro.generators import (
    generate_consistent_database,
    k_cycle_hypergraph,
    skewed_chain_database,
)
from repro.relational import DatabaseSchema


@pytest.fixture(scope="module")
def chain_database():
    return skewed_chain_database(3, heads=40, fanout=4, junction_values=6,
                                 seed=11)


@pytest.fixture(scope="module")
def cycle_database():
    schema = DatabaseSchema.from_hypergraph(k_cycle_hypergraph(4))
    return generate_consistent_database(schema, universe_rows=40,
                                        domain_size=8, seed=7)


@pytest.fixture(scope="module", autouse=True)
def _stop_workers_afterwards():
    yield
    shutdown_shard_executors()


# --------------------------------------------------------------------------- #
# Partitioner
# --------------------------------------------------------------------------- #
class TestPartitioner:
    def test_key_is_the_most_shared_attribute(self, chain_database):
        relations = chain_database.relations()
        key = choose_shard_key(relations)
        assert key is not None
        sharing = sum(1 for relation in relations
                      if key in relation.schema.attribute_set)
        assert sharing >= 2

    def test_no_shared_attribute_means_no_key(self, chain_database):
        single = [chain_database.relations()[0]]
        assert choose_shard_key(single) is None

    def test_single_shard_shares_the_original_relations(self, chain_database):
        relations = chain_database.relations()
        partition = partition_relations(relations, 1)
        assert partition.key is None
        assert partition.shard_count == 1
        (piece,) = partition.slices
        for original, shared in zip(relations, piece.relations):
            assert shared is original

    @pytest.mark.parametrize("shard_count", [2, 3, 7])
    def test_partitioned_rows_reunite_to_the_original(self, chain_database,
                                                      shard_count):
        relations = chain_database.relations()
        partition = partition_relations(relations, shard_count)
        assert partition.shard_count == shard_count
        assert len(partition.slices) == shard_count
        by_name = {relation.name: relation for relation in relations}
        for name in partition.partitioned:
            pieces = []
            for piece in partition.slices:
                (shard_relation,) = [r for r in piece.relations
                                     if r.name == name]
                pieces.append(frozenset(shard_relation.rows))
            union = frozenset().union(*pieces)
            assert union == frozenset(by_name[name].rows)
            # Co-partitioning: a row lands in exactly one shard.
            assert sum(len(piece) for piece in pieces) == len(by_name[name])

    def test_broadcast_relations_are_shared_by_reference(self, chain_database):
        relations = chain_database.relations()
        key = choose_shard_key(relations)
        partition = partition_relations(relations, 2)
        for name in partition.broadcast:
            original = next(r for r in relations if r.name == name)
            assert key not in original.schema.attribute_set or not original
            for piece in partition.slices:
                (shared,) = [r for r in piece.relations if r.name == name]
                assert shared is original

    def test_row_counts_and_skew(self, chain_database):
        partition = partition_relations(chain_database.relations(), 2)
        counts = partition.row_counts
        assert len(counts) == 2
        assert sum(counts) == sum(
            len(next(r for r in chain_database.relations() if r.name == name))
            for name in partition.partitioned)
        assert partition.skew is not None and partition.skew >= 1.0

    def test_partition_database_returns_databases(self, chain_database):
        partition, databases = partition_database(chain_database, 2)
        assert len(databases) == 2
        for database in databases:
            assert database.schema is chain_database.schema

    def test_rejects_nonpositive_shard_counts(self, chain_database):
        with pytest.raises(ValueError):
            partition_relations(chain_database.relations(), 0)


# --------------------------------------------------------------------------- #
# Versioned payloads
# --------------------------------------------------------------------------- #
class TestSerial:
    def test_round_trip(self, chain_database):
        blocks = tuple(block_for(relation)
                       for relation in chain_database.relations())
        token = next_generation_token()
        payload = dump_blocks(token, blocks)
        assert payload.startswith(MAGIC)
        loaded_token, loaded = load_blocks(payload)
        assert loaded_token == token
        for original, clone in zip(blocks, loaded):
            assert clone.attributes == original.attributes
            assert len(clone) == len(original)

    def test_tokens_are_unique(self):
        assert next_generation_token() != next_generation_token()

    def test_bad_magic_is_rejected(self):
        with pytest.raises(ShardPayloadError):
            load_blocks(b"XXXX" + bytes(2) + pickle.dumps(("t", ())))

    def test_wrong_version_is_rejected(self):
        bad_version = (FORMAT_VERSION + 1).to_bytes(2, "big")
        with pytest.raises(ShardPayloadError):
            load_blocks(MAGIC + bad_version + pickle.dumps(("t", ())))

    def test_truncated_payload_is_rejected(self):
        with pytest.raises(ShardPayloadError):
            load_blocks(MAGIC[:2])


# --------------------------------------------------------------------------- #
# Option plumbing
# --------------------------------------------------------------------------- #
class TestOptions:
    def test_defaults_are_unsharded(self):
        options = ExecutionOptions()
        assert options.shards is None
        assert options.shard_executor is None

    def test_shards_must_be_positive(self):
        assert ExecutionOptions(shards=2).shards == 2
        with pytest.raises(ValueError):
            ExecutionOptions(shards=0)

    def test_executor_name_is_validated(self):
        assert ExecutionOptions(shard_executor="process").shard_executor == \
            "process"
        with pytest.raises(ValueError):
            ExecutionOptions(shard_executor="bogus")

    def test_effective_shards_prefers_the_option(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "4")
        assert effective_shards(2) == 2
        assert effective_shards(None) == 4

    @pytest.mark.parametrize("raw,expected", [
        ("", None), ("x", None), ("0", None), ("-3", None), ("3", 3)])
    def test_effective_shards_parses_the_environment(self, monkeypatch, raw,
                                                     expected):
        monkeypatch.setenv("REPRO_SHARDS", raw)
        assert effective_shards(None) == expected

    def test_effective_executor_falls_back_to_thread(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD_EXECUTOR", raising=False)
        assert effective_shard_executor(None) == "thread"
        monkeypatch.setenv("REPRO_SHARD_EXECUTOR", "bogus")
        assert effective_shard_executor(None) == "thread"
        monkeypatch.setenv("REPRO_SHARD_EXECUTOR", "process")
        assert effective_shard_executor(None) == "process"
        assert effective_shard_executor("thread") == "thread"


# --------------------------------------------------------------------------- #
# Executors end to end
# --------------------------------------------------------------------------- #
class TestExecution:
    def test_registry_pools_executors(self):
        first = shard_executor_for("thread", 2)
        assert shard_executor_for("thread", 2) is first
        assert shard_executor_for("thread", 3) is not first

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_acyclic_matches_unsharded(self, chain_database, executor):
        baseline = EngineSession().execute(chain_database, chain_database)
        sharded = EngineSession(shards=3, shard_executor=executor).execute(
            chain_database, chain_database)
        assert frozenset(sharded.relation.rows) == \
            frozenset(baseline.relation.rows)
        assert sharded.relation.schema.attributes == \
            baseline.relation.schema.attributes
        statistics = sharded.statistics
        assert statistics.shards == 3
        assert statistics.shard_executor == executor
        assert statistics.plan_name.startswith("engine-sharded-acyclic")
        assert statistics.shard_key is not None
        assert len(statistics.shard_row_counts) == 3
        assert len(statistics.shard_statistics) == 3
        assert dict(statistics.phase_times).keys() >= \
            {"prepare", "execute", "merge", "decode"}

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_cyclic_matches_unsharded(self, cycle_database, executor):
        baseline = EngineSession().execute(cycle_database, cycle_database)
        sharded = EngineSession(shards=2, shard_executor=executor).execute(
            cycle_database, cycle_database)
        assert frozenset(sharded.relation.rows) == \
            frozenset(baseline.relation.rows)
        assert sharded.statistics.plan_name.startswith("engine-sharded-cyclic")

    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("outputs", [None, ["C0", "C3"], []])
    def test_service_documents_equal_the_unsharded_one(
            self, chain_database, cycle_database, shards, executor, outputs):
        # The service defers decode; sharded results reach it as a merged
        # block (thread executor) or a merged relation (process executor,
        # 0-ary output) and must serialise to the same text.
        import json

        from repro.service import QueryService

        service = QueryService(EngineSession())
        try:
            for name, database in (("chain", chain_database),
                                   ("cycle", cycle_database)):
                if name == "cycle" and outputs:
                    continue
                service.add_database(name, database)
                documents = []
                for options in ({}, {"shards": shards,
                                     "shard_executor": executor}):
                    params = {"database": name, "options": options}
                    if outputs is not None:
                        params["outputs"] = outputs
                    _, prepared = service.handle({
                        "version": 1, "method": "prepare", "client": "t",
                        "id": "p", "params": params})
                    status, envelope = service.handle({
                        "version": 1, "method": "execute", "client": "t",
                        "id": "e", "params": {
                            "query": prepared["result"]["query"],
                            "database": name}})
                    assert status == 200, envelope
                    documents.append(json.dumps(
                        {key: envelope["result"][key]
                         for key in ("row_count", "relation")}))
                assert documents[0] == documents[1]
        finally:
            service.pool.shutdown(wait=True)

    def test_a_rows_merge_is_not_re_encoded_under_deferred_decode(
            self, chain_database, monkeypatch):
        # A process-executor merge already holds the answer as a relation;
        # decode="block" hands that back instead of encoding it again.
        from repro.engine.columnar import ColumnBlock

        session = EngineSession(decode="block",
                                shards=2, shard_executor="process")
        prepared = session.prepare(chain_database)
        prepared.execute(chain_database)      # warm: the inputs are encoded
        encoded = []
        encode = ColumnBlock.from_relation.__func__
        monkeypatch.setattr(ColumnBlock, "from_relation", classmethod(
            lambda cls, relation: encoded.append(relation)
            or encode(cls, relation)))
        result = prepared.execute(chain_database)
        assert encoded == []
        assert result.block is None
        assert result.decoded() is result.relation
        assert result.statistics.output_size == len(result.relation)
        baseline = EngineSession().execute(chain_database, chain_database)
        assert result.relation == baseline.relation

    def test_warm_prepared_queries_stay_identical(self, chain_database):
        prepared = EngineSession(shards=2).prepare(chain_database)
        first = prepared.execute(chain_database)
        second = prepared.execute(chain_database)
        assert frozenset(second.relation.rows) == \
            frozenset(first.relation.rows)

    def test_execute_many_runs_sharded(self, chain_database):
        session = EngineSession(shards=2)
        batch = session.execute_many(chain_database,
                                     [chain_database, chain_database],
                                     labels=["a", "b"])
        for run in batch.statistics.runs:
            assert run.shards == 2


# --------------------------------------------------------------------------- #
# Monitor and report surfaces
# --------------------------------------------------------------------------- #
class TestObservability:
    def test_monitor_folds_shard_accounting(self, chain_database):
        session = EngineSession(monitor=True, shards=2)
        session.execute(chain_database, chain_database)
        values = session.monitor.collect()
        assert values["engine_shard_runs_total"] == 1
        assert values["engine_shard_fanout_total"] == 2
        assert values["engine_shard_merge_seconds_total"] >= 0.0
        assert values["engine_shard_skew_max"] >= 1.0
        entry = session.monitor.log.entries()[-1]
        assert entry.shards == 2
        assert entry.to_dict()["shards"] == 2

    def test_unsharded_runs_report_no_shards(self, chain_database,
                                             monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        session = EngineSession(monitor=True)
        session.execute(chain_database, chain_database)
        values = session.monitor.collect()
        assert values["engine_shard_runs_total"] == 0
        entry = session.monitor.log.entries()[-1]
        assert entry.shards is None

    def test_statistics_table_shows_the_shard_column(self, chain_database):
        sharded = EngineSession(shards=2).execute(chain_database,
                                                  chain_database)
        text = statistics_table([sharded.statistics])
        assert "shards" in text
        assert "2[thread]" in text

    def test_query_log_table_shows_the_shard_column(self, chain_database):
        session = EngineSession(monitor=True, shards=2)
        session.execute(chain_database, chain_database)
        text = query_log_table(session.monitor.log.entries())
        assert "shards" in text
