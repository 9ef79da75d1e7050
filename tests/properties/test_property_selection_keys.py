"""Property-based: a selection's cache key is hashed once and stays content-addressed.

Every derived-cache key names a selection by its bytes.  A block materialises
those bytes at most once, its zero-copy derivations inherit them, and a
memoised semijoin outcome stores them next to its kept positions, so a warm
re-execution meets the very key objects its first run filed.  Four claims:

* **answers** — on :mod:`strategies`' random skewed acyclic and cyclic
  databases, under both column backends, every execute answers exactly what
  :mod:`repro.relational` answers, byte for byte;
* **content addressing** — every hit / miss counter of
  :func:`column_cache_info` reads the same whether keys are carried or every
  block is forced to recompute its key on every use, on cold and warm runs,
  across :func:`clear_column_caches`;
* **one key per selection** — derivations share their parent's key object,
  empty selections (``b""``) and 0-ary blocks are keyed like any other, the
  fixpoint hands ``left`` back keyed as it was and the dead end carries the
  stored ``b""``;
* **warm runs build none** — a warm execute materialises no key, also after
  a cache clear and on two threads at once, which get the identical
  ``Relation``.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from properties.strategies import skewed_acyclic_databases, skewed_cyclic_databases

from repro.core.nodes import sorted_nodes
from repro.engine import EngineSession
from repro.engine.columnar import (
    ColumnBlock,
    available_column_backends,
    block_for,
    clear_column_caches,
    column_cache_info,
    semijoin_blocks,
)
from repro.generators import (
    generate_database,
    skewed_chain_database,
    skewed_chain_endpoints,
    triangle_core_chain,
)
from repro.relational import (
    DatabaseSchema,
    Relation,
    RelationSchema,
    naive_join,
    yannakakis_join,
)

BACKENDS = available_column_backends()


def oracle(database, outputs):
    """The ``repro.relational`` answer (naive join when the schema is cyclic)."""
    if database.schema.is_acyclic():
        return yannakakis_join(database, outputs).relation
    return naive_join(database, outputs)[0]


def assert_byte_identical(relation, expected, name: str) -> None:
    assert relation.name == name
    assert relation.attributes == tuple(sorted_nodes(expected.schema.attribute_set))
    assert relation.rows == expected.rows
    assert sorted(map(repr, relation.rows)) == sorted(map(repr, expected.rows))


def _recomputed_bytes(block: ColumnBlock):
    return None if block._sel is None else block._sel.tobytes()


@contextmanager
def keys_recomputed():
    """Every block recomputes its key on every use: no key is carried."""
    carried = ColumnBlock.selection_bytes
    ColumnBlock.selection_bytes = _recomputed_bytes
    try:
        yield
    finally:
        ColumnBlock.selection_bytes = carried


def _runs(database, outputs, backend: str):
    """Per execute: the answer and every counter but ``selection_keys``.

    Two rounds of a cold execute, two warm ones and the service's wire rows,
    with a cache clear in between.  Counters are read as the change since
    the round's clear (a clear keeps counts, and zeroes only the sizes).
    """
    seen = []
    for _ in range(2):
        clear_column_caches()
        start = column_cache_info()
        prepared = EngineSession(column_backend=backend).prepare(database, outputs)
        for _ in range(3):
            result = prepared.execute(database)
            if result.block is not None:
                result.block.wire_rows(prepared.name)
            info = {name: value - start[name]
                    for name, value in column_cache_info().items()
                    if name != "selection_keys"}
            seen.append((prepared.name, result.relation, info))
    clear_column_caches()
    return seen


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


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=queries(st.one_of(skewed_acyclic_databases(),
                               skewed_cyclic_databases())),
       backend=st.sampled_from(BACKENDS))
def test_carried_keys_answer_and_count_like_recomputed_ones(query, backend):
    database, outputs = query
    expected = oracle(database, outputs)
    # The first execute ever on a database fills state the column caches do
    # not own (its block-cache traffic differs from every later first run):
    # take it before either side counts.
    EngineSession(column_backend=backend).prepare(database, outputs).execute(database)
    carried = _runs(database, outputs, backend)
    with keys_recomputed():
        recomputed = _runs(database, outputs, backend)
    for (name, relation, counters), (_, again, recounted) in zip(carried,
                                                                 recomputed):
        assert_byte_identical(relation, expected, name)
        assert_byte_identical(again, expected, name)
        assert counters == recounted


# --------------------------------------------------------------------------- #
# One key per selection
# --------------------------------------------------------------------------- #
def _built():
    return column_cache_info()["selection_keys"]


def _keyed(name, keys, payload):
    return block_for(Relation.from_tuples(
        RelationSchema.of(name, ("K", payload)),
        [(key, f"{payload}{key}") for key in keys]))


def test_derivations_share_their_parents_key_object():
    base = _keyed("left", range(6), "L")
    assert base.selection_bytes() is None
    selected = base.select([4, 1, 3])
    built = _built()
    derived = (selected.rename("other"),
               selected.with_column_order(reversed(selected.attributes)),
               selected.project_onto(["K"]))
    assert _built() == built + 1          # computed once, on the parent
    key = selected.selection_bytes()
    assert key == selected.positions.tobytes()
    for block in derived:
        assert block.selection_bytes() is key
    assert _built() == built + 1
    # A key handed to ``select`` is taken as is.
    assert base.select(selected.positions, key).selection_bytes() is key
    assert _built() == built + 1


def test_empty_selections_are_keyed_alike_and_share_entries():
    left, right = _keyed("left", range(4), "L"), _keyed("right", range(2, 6), "R")
    built = _built()
    empty = left.empty()
    assert empty.selection_bytes() == b"" and _built() == built
    selected = left.select([])
    assert selected.selection_bytes() == b"" and _built() == built + 1
    # Content-addressed: the empty view and an empty selection share memos.
    info = column_cache_info()
    assert len(semijoin_blocks(empty, right)) == 0
    assert len(semijoin_blocks(selected, right)) == 0
    now = column_cache_info()
    assert (now["keyset_misses"] - info["keyset_misses"],
            now["keyset_hits"] - info["keyset_hits"]) == (1, 1)
    assert selected.to_relation() is empty.to_relation()


def test_a_dead_end_carries_the_stored_empty_key():
    left = _keyed("left", range(5), "L")
    right = _keyed("right", range(20, 25), "R")
    first = semijoin_blocks(left, right)
    built = _built()
    second = semijoin_blocks(left, right)
    assert len(first) == len(second) == 0
    assert first.selection_bytes() == b""
    assert second.selection_bytes() is first.selection_bytes()
    assert _built() == built


def test_a_fixpoint_hands_left_back_keyed_as_it_was():
    base = _keyed("left", range(6), "L")
    left = base.select([5, 0, 2])
    key = left.selection_bytes()
    right = _keyed("right", range(9), "R")
    built = _built()
    for _ in range(2):
        result = semijoin_blocks(left, right)
        assert result is left and result.selection_bytes() is key
    assert _built() == built


def test_a_partial_outcome_is_keyed_once_and_served_with_its_key():
    left, right = _keyed("left", range(6), "L"), _keyed("right", range(3, 9), "R")
    built = _built()
    first = semijoin_blocks(left, right)
    assert _built() == built + 1          # the miss keys the kept positions
    assert first.selection_bytes() == first.positions.tobytes()
    for _ in range(2):
        assert semijoin_blocks(left, right).selection_bytes() is \
            first.selection_bytes()
    assert _built() == built + 1


def test_zero_ary_blocks_are_keyed_like_any_other():
    rows = ColumnBlock.from_columns("Z", (), {}, length=3)
    assert rows.selection_bytes() is None
    one = rows.distinct()
    assert len(one) == 1
    built = _built()
    key = one.selection_bytes()
    assert _built() == built + 1
    assert one.project_onto(()).selection_bytes() is key
    relation = one.to_relation()
    assert len(relation) == 1 and relation.attributes == ()
    assert rows.select(one.positions).to_relation("Z") is relation
    assert _built() == built + 2
    wide = _keyed("left", range(4), "L").select([3, 1])
    nullary = wide.project_onto(())
    assert nullary.selection_bytes() is wide.selection_bytes()
    assert len(nullary.distinct()) == 1


# --------------------------------------------------------------------------- #
# Warm runs build none
# --------------------------------------------------------------------------- #
def _benchmark_shapes():
    """The repository benchmark's acyclic chain and triangle-core chain, small."""
    chain = skewed_chain_database(6, heads=20, fanout=6, junction_values=3,
                                  seed=1)
    triangles = generate_database(
        DatabaseSchema.from_hypergraph(triangle_core_chain(3)),
        universe_rows=120, domain_size=8, dangling_fraction=0.5, seed=4)
    return [(chain, skewed_chain_endpoints(6)), (triangles, ("C0", "C4"))]


@pytest.mark.parametrize("backend", BACKENDS)
def test_no_key_is_built_warm_even_after_a_cache_clear(backend):
    for database, outputs in _benchmark_shapes():
        expected = oracle(database, outputs)
        prepared = EngineSession(column_backend=backend).prepare(database, outputs)
        fresh = []
        for _ in range(2):
            clear_column_caches()
            start = _built()
            answer = prepared.execute(database).relation
            fresh.append(_built() - start)
            for _ in range(2):
                assert prepared.execute(database).relation is answer
            assert _built() == start + fresh[-1]
            assert_byte_identical(answer, expected, prepared.name)
        assert fresh[0] == fresh[1] > 0
    clear_column_caches()


@pytest.mark.parametrize("shape", [0, 1], ids=["acyclic", "cyclic"])
def test_two_threads_warm_execute_to_the_identical_relation(shape):
    database, outputs = _benchmark_shapes()[shape]
    prepared = EngineSession().prepare(database, outputs)
    answer = prepared.execute(database).relation
    built = _built()
    barrier = threading.Barrier(2)
    answers, errors = [[], []], []

    def run(slot: int) -> None:
        try:
            barrier.wait()
            for _ in range(20):
                answers[slot].append(prepared.execute(database).relation)
        except BaseException as error:  # surfaced below
            errors.append(error)

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert all(relation is answer for slot in answers for relation in slot)
    assert _built() == built
    assert_byte_identical(answer, oracle(database, outputs), prepared.name)
