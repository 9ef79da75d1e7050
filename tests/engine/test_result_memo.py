"""The result memo: a warm answer is decoded once, on its result storage.

:meth:`ColumnBlock.to_relation` files the relation it decodes in the block
storage's derived cache under ``("relation", name, attributes, selection
bytes)``.  A re-execution over the same relations ends on the same result
storage and selection, so it is handed the very ``Relation`` decoded before.
A warm execute on the same binding is served from the binding's memo and
decodes nothing, so a second database over the same relation objects
(:func:`~properties.strategies.rebound`, a new binding) is what meets the
storage memo.  Anything that changes the key — another name, column order or
selection, a fresh database, a new interner generation, an evicted cache —
decodes again and must still equal the ``repro.relational`` answer.

The memo lives on column blocks, and every engine answer ends on one.
"""

from __future__ import annotations

import random
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from properties.strategies import (
    fresh_block,
    rebound,
    skewed_acyclic_databases,
    skewed_cyclic_databases,
)

from repro.core.nodes import sorted_nodes
from repro.engine import EngineSession
from repro.engine.columnar import clear_column_caches, column_cache_info
from repro.engine.columnar.block import _DERIVED_CACHE_CAP
from repro.generators import (
    generate_database,
    skewed_chain_database,
    skewed_chain_endpoints,
    triangle_core_chain,
)
from repro.relational import DatabaseSchema, naive_join, yannakakis_join

def acyclic_case(seed: int = 0):
    return skewed_chain_database(4, heads=4, fanout=3, junction_values=2,
                                 seed=seed), skewed_chain_endpoints(4)


def cyclic_case(seed: int = 7):
    schema = DatabaseSchema.from_hypergraph(triangle_core_chain(3))
    return generate_database(schema, universe_rows=40, domain_size=4,
                             dangling_fraction=0.4, seed=seed), None


def oracle(database, outputs):
    """The ``repro.relational`` answer (naive join when the schema is cyclic)."""
    if database.schema.is_acyclic():
        return yannakakis_join(database, outputs).relation
    return naive_join(database, outputs)[0]


def assert_answer(relation, expected, name: str) -> None:
    assert relation.name == name
    assert relation.attributes == tuple(sorted_nodes(expected.schema.attribute_set))
    assert relation.rows == expected.rows


def relation_counts():
    info = column_cache_info()
    return info["relation_hits"], info["relation_misses"]


CASES = pytest.mark.parametrize("case", [acyclic_case, cyclic_case],
                                ids=["acyclic", "cyclic"])


@CASES
def test_a_warm_execute_returns_the_same_relation(case):
    database, outputs = case()
    prepared = EngineSession().prepare(database, outputs)
    first = prepared.execute(database)
    hits, misses = relation_counts()
    second = prepared.execute(database)
    assert second.relation is first.relation
    assert relation_counts() == (hits, misses)  # served by the binding
    third = prepared.execute(rebound(database))
    assert third.relation is first.relation
    assert relation_counts() == (hits + 1, misses)
    assert_answer(first.relation, oracle(database, outputs), prepared.name)


@CASES
def test_a_deferred_answer_decodes_to_one_relation(case):
    database, outputs = case()
    result = EngineSession(decode="block").prepare(
        database, outputs).execute(database)
    assert result.relation is None
    assert result.decoded() is result.decoded()
    assert_answer(result.decoded(), oracle(database, outputs), result.result_name)


@CASES
def test_another_name_column_order_or_selection_is_its_own_relation(case):
    database, outputs = case()
    result = EngineSession().prepare(database, outputs).execute(database)
    block, answer = result.block, result.relation
    expected = oracle(database, outputs)

    renamed = block.to_relation("other")
    assert renamed is not answer and renamed is block.to_relation("other")
    assert_answer(renamed, expected, "other")

    permuted = block.with_column_order(reversed(block.attributes)).to_relation()
    assert permuted is not answer
    assert permuted.attributes == tuple(reversed(answer.attributes))
    assert permuted.rows == expected.rows

    half = list(block.positions)[: len(block) // 2]
    selected = block.select(half).to_relation()
    assert selected is not answer and len(selected) == len(half)
    assert selected.rows <= expected.rows
    # The other keys sit next to the answer's; none displaced it.
    assert block.peek_relation(result.result_name) is answer


@CASES
def test_a_fresh_database_misses(case):
    database, outputs = case()
    prepared = EngineSession().prepare(database, outputs)
    answer = prepared.execute(database).relation
    fresh, _ = case()
    hits, misses = relation_counts()
    again = prepared.execute(fresh).relation
    assert relation_counts() == (hits, misses + 1)
    assert again is not answer and again == answer


@CASES
def test_the_answer_survives_clear_column_caches(case):
    database, outputs = case()
    prepared = EngineSession().prepare(database, outputs)
    answer = prepared.execute(database).relation
    clear_column_caches()
    try:
        hits, misses = relation_counts()
        again = prepared.execute(database).relation
        assert relation_counts() == (hits, misses + 1)
        assert again is not answer
        assert_answer(again, oracle(database, outputs), prepared.name)
    finally:
        clear_column_caches()


@CASES
def test_the_answer_survives_a_flooded_derived_cache(case):
    database, outputs = case()
    prepared = EngineSession().prepare(database, outputs)
    result = prepared.execute(database)
    for index in range(_DERIVED_CACHE_CAP):
        result.block.derived_put(("flood", index), index)
    assert result.block.peek_relation(prepared.name) is None
    hits, misses = relation_counts()
    second = rebound(database)
    again = prepared.execute(second).relation
    assert relation_counts() == (hits, misses + 1)
    assert again is not result.relation
    assert_answer(again, oracle(database, outputs), prepared.name)
    assert prepared.execute(second).relation is again
    assert prepared.execute(rebound(database)).relation is again


@CASES
def test_eight_threads_on_one_prepared_query_agree(case):
    database, outputs = case()
    prepared = EngineSession().prepare(database, outputs)
    expected = oracle(database, outputs)
    barrier = threading.Barrier(8)
    answers, errors = [None] * 8, []
    # One new binding per execute, over the same relations: every execute
    # decodes through the result storage's memo.
    databases = [[rebound(database) for _ in range(5)] for _ in range(8)]

    def run(slot: int) -> None:
        try:
            barrier.wait()
            for each in databases[slot]:
                answers[slot] = prepared.execute(each).relation
        except BaseException as error:  # surfaced below
            errors.append(error)

    hits, misses = relation_counts()
    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for answer in answers:
        assert_answer(answer, expected, prepared.name)
    now_hits, now_misses = relation_counts()
    assert (now_hits - hits) + (now_misses - misses) == 40
    assert prepared.execute(database).relation in answers


@CASES
def test_a_fresh_block_of_the_answer_decodes_equal(case):
    database, outputs = case()
    result = EngineSession().prepare(database, outputs).execute(database)
    fresh = fresh_block(result.block)
    assert len(fresh) == len(result.block)
    # The memo is filed under the storage: a value-equal block has none.
    assert fresh.peek_relation(result.result_name) is None
    decoded = fresh.to_relation(result.result_name)
    assert decoded is not result.relation
    assert decoded == result.relation
    assert decoded.attributes == result.relation.attributes
    assert fresh.to_relation(result.result_name) is decoded


@st.composite
def queries(draw, databases):
    """A database plus outputs (``None`` = all, ``()`` = 0-ary)."""
    database = draw(databases)
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    attributes = sorted_nodes(database.schema.attributes)
    width = rng.choice((None, 0, 1, 2, 3))
    if width is None:
        return database, None
    return database, tuple(rng.sample(attributes, min(width, len(attributes))))


@pytest.mark.slow
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(query=queries(st.one_of(skewed_acyclic_databases(),
                               skewed_cyclic_databases())))
def test_the_memoised_decode_equals_a_fresh_decode_and_the_oracle(query):
    database, outputs = query
    prepared = EngineSession().prepare(database, outputs)
    first = prepared.execute(database)
    memoised = prepared.execute(database).relation
    assert_answer(memoised, oracle(database, outputs), prepared.name)
    assert memoised == first.relation
    assert memoised is first.relation
    fresh = fresh_block(first.block).to_relation(prepared.name)
    assert memoised == fresh
    assert memoised.attributes == fresh.attributes
    assert sorted(map(repr, memoised.rows)) == sorted(map(repr, fresh.rows))
