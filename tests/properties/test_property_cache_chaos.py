"""Property-based: answers survive caches squeezed to one entry and cleared at random.

Every engine cache holds something determined by what it is keyed on, so no
eviction or clear may change an answer — only what gets recomputed.  Here
the planner's plan LRU and the session's prepared-query LRU each hold one
entry, so acyclic and cyclic schemas, their quotient plans, their
catalog-chosen cover variants and every output set keep evicting each other
(including from inside a build: a cyclic plan compiles its quotient's plan
in the same one-entry LRU).  Between executes :func:`clear_column_caches`
fires at random, which drops every column block and starts a new interner
generation under the cyclic bindings' warm memos.  Prepared queries held
from earlier steps keep executing after their cache entry is gone.

Every answer must equal :mod:`repro.relational`'s — :func:`yannakakis_join`
on acyclic schemas, :func:`naive_join` on cyclic ones — byte for byte, on
both column backends, adaptive and static, and from four threads at once.
The LRUs count what they evict: a full one-entry cache evicts on every
miss but its first.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from properties.strategies import skewed_acyclic_databases, skewed_cyclic_databases

from repro.core.nodes import sorted_nodes
from repro.engine import EngineSession, QueryPlanner, clear_column_caches
from repro.engine import session as session_module
from repro.engine.columnar import available_column_backends
from repro.generators import generate_database, triangle_core_chain, university_schema
from repro.relational import DatabaseSchema, naive_join, yannakakis_join

BACKENDS = available_column_backends()

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def oracle(database, outputs):
    """The ``repro.relational`` answer (naive join when the schema is cyclic)."""
    if database.schema.is_acyclic():
        return yannakakis_join(database, outputs).relation
    return naive_join(database, outputs)[0]


def assert_byte_identical(relation, expected) -> None:
    assert relation.attributes == tuple(sorted_nodes(expected.schema.attribute_set))
    assert relation.rows == expected.rows
    assert sorted(map(repr, relation.rows)) == sorted(map(repr, expected.rows))


def one_entry_session(**options) -> EngineSession:
    """A session whose planner and prepared-query LRUs each hold one entry."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(session_module, "_PREPARED_CACHE_CAPACITY", 1)
        return EngineSession(QueryPlanner(capacity=1), **options)


def output_sets(database, seed):
    """Two output sets to alternate between: the full join and a random subset."""
    attributes = sorted_nodes(database.schema.attributes)
    rng = random.Random(seed)
    return (None, tuple(rng.sample(attributes, rng.randint(1, len(attributes)))))


@SETTINGS
@given(databases=st.lists(st.one_of(skewed_acyclic_databases(),
                                    skewed_cyclic_databases()),
                          min_size=2, max_size=3),
       steps=st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                                st.integers(min_value=0, max_value=1),
                                st.booleans(), st.booleans()),
                      min_size=4, max_size=12),
       seed=st.integers(min_value=0, max_value=10 ** 6),
       backend=st.sampled_from(BACKENDS), adaptive=st.booleans())
def test_evictions_and_clears_never_change_an_answer(databases, steps, seed,
                                                     backend, adaptive):
    session = one_entry_session(column_backend=backend, adaptive=adaptive)
    outputs = [output_sets(database, seed + index)
               for index, database in enumerate(databases)]
    held = {}
    for which, output_index, clear, reuse in steps:
        database = databases[which % len(databases)]
        wanted = outputs[which % len(databases)][output_index]
        if clear:
            clear_column_caches()
        key = (which % len(databases), output_index)
        if reuse and key in held:
            # A prepared query outlives its (evicted) cache entry.
            prepared = held[key]
        else:
            prepared = held[key] = session.prepare(database, wanted)
        result = prepared.execute(database)
        assert_byte_identical(result.decoded(), oracle(database, wanted))
    info = session.cache_info()
    assert info.size <= info.capacity == 1
    assert "prepared=1)" in session.describe()
    for cache, report in session.cache_reports():
        assert report["evictions"] == report["misses"] - 1, cache


def test_threads_sharing_one_entry_caches_get_the_oracle_answers():
    acyclic = generate_database(university_schema(), universe_rows=20, seed=3)
    cyclic = generate_database(
        DatabaseSchema.from_hypergraph(triangle_core_chain(3)),
        universe_rows=20, domain_size=4, seed=3)
    work = [(acyclic, None), (cyclic, None), (cyclic, ("C0", "C4")),
            (acyclic, tuple(sorted_nodes(acyclic.schema.attributes))[:2])]
    expected = [oracle(database, wanted) for database, wanted in work]
    session = one_entry_session(adaptive=True)
    errors = []

    def worker(offset, barrier):
        try:
            barrier.wait()
            for step in range(8):
                index = (offset + step) % len(work)
                database, wanted = work[index]
                result = session.prepare(database, wanted).execute(database)
                assert_byte_identical(result.decoded(), expected[index])
        except Exception as error:  # reported by the main thread
            errors.append(error)

    # Column caches are cleared between rounds, not during one: a clear that
    # lands mid-execute can make the kernels refuse to mix interner generations.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            barrier = threading.Barrier(4)
            threads = [threading.Thread(target=worker, args=(offset, barrier))
                       for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            clear_column_caches()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    reports = dict(session.cache_reports())
    assert reports["planner"]["evictions"] > 0
    assert reports["prepared"]["evictions"] > 0
