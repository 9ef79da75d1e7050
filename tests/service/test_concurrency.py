"""Shared-state safety under concurrency: the satellite thread-safety audit.

The documented contract (see ``_ColumnStorage``'s docstring) is that one
prepared query may be executed from many threads at once: lock-free derived
caches are benign (immutable values, equivalent rebuilds, last-write-wins),
the interner locks its writes, key packing needs no lock, and the keyset and
key-overflow counters are exact.  These
tests hammer exactly those paths with 8 threads and compare every result
against the serial answer.
"""

from __future__ import annotations

import sys
import threading
from array import array

import pytest

from repro.engine.columnar import ColumnBlock, column_cache_info
from repro.engine.columnar.buffers import ValueInterner, key_radix
from repro.engine.session import EngineSession
from repro.generators import (
    generate_consistent_database,
    k_cycle_hypergraph,
    skewed_chain_database,
)
from repro.relational import DatabaseSchema
from repro.service.pool import ExecutionPool

THREADS = 8
ROUNDS = 6


@pytest.fixture(scope="module")
def chain_database():
    return skewed_chain_database(3, heads=14, fanout=7, junction_values=4,
                                 seed=21)


@pytest.fixture(scope="module")
def cycle_database():
    schema = DatabaseSchema.from_hypergraph(k_cycle_hypergraph(4))
    return generate_consistent_database(schema, universe_rows=36,
                                        domain_size=7, seed=13)


def _hammer(fn, threads=THREADS):
    """Run ``fn(worker_index)`` on N threads at once; re-raise any failure."""
    barrier = threading.Barrier(threads)
    errors = []

    def runner(index):
        try:
            barrier.wait(timeout=10)
            fn(index)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    workers = [threading.Thread(target=runner, args=(index,))
               for index in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
    if errors:
        raise errors[0]


def test_eight_thread_hammer_on_one_prepared_query(chain_database):
    session = EngineSession()
    prepared = session.prepare(chain_database)
    expected = frozenset(prepared.execute(chain_database).relation.rows)

    def worker(_index):
        for _ in range(ROUNDS):
            result = prepared.execute(chain_database)
            assert frozenset(result.relation.rows) == expected

    _hammer(worker)


def test_eight_thread_hammer_on_the_cyclic_path(cycle_database):
    session = EngineSession()
    prepared = session.prepare(cycle_database)
    expected = frozenset(prepared.execute(cycle_database).relation.rows)

    def worker(_index):
        for _ in range(ROUNDS):
            result = prepared.execute(cycle_database)
            assert frozenset(result.relation.rows) == expected

    _hammer(worker)


@pytest.mark.parametrize("fixture", ["chain_database", "cycle_database"])
def test_eight_thread_hammer_on_handle_returns_one_document(request, fixture):
    # The wire path reads the result block's decoded columns, which the
    # storage caches lock-free (racing threads decode equivalent lists): every
    # response to one query on one database must be the same text.
    import json

    from repro.service import QueryService

    service = QueryService(EngineSession())
    service.add_database("db", request.getfixturevalue(fixture))

    def call(method, **params):
        status, envelope = service.handle({
            "version": 1, "method": method, "client": "hammer", "id": "r",
            "params": params})
        assert status == 200, envelope
        return envelope["result"]

    handle = call("prepare", database="db")["query"]
    documents = set()

    def worker(_index):
        for _ in range(ROUNDS):
            result = call("execute", query=handle, database="db")
            documents.add(json.dumps(
                {key: result[key] for key in ("row_count", "relation")}))

    try:
        _hammer(worker)
    finally:
        service.pool.shutdown(wait=True)
    assert len(documents) == 1
    assert json.loads(documents.pop())["row_count"] > 0


def test_keyset_counters_stay_exact_under_concurrency(chain_database):
    # The global hit/miss counters are guarded by a lock, so a concurrent
    # hammer must account for every lookup — no lost read-add-store updates.
    session = EngineSession()
    prepared = session.prepare(chain_database)
    prepared.execute(chain_database)  # warm: caches built, binding resolved

    before = column_cache_info()["keyset_hits"] \
        + column_cache_info()["keyset_misses"]

    def worker(_index):
        for _ in range(ROUNDS):
            prepared.execute(chain_database)

    _hammer(worker)
    after = column_cache_info()["keyset_hits"] \
        + column_cache_info()["keyset_misses"]
    lookups_per_run = None
    # One more serial run measures the per-run lookup count…
    prepared.execute(chain_database)
    final = column_cache_info()["keyset_hits"] \
        + column_cache_info()["keyset_misses"]
    lookups_per_run = final - after
    # …and the hammered total must be exactly N threads × rounds × that.
    assert after - before == THREADS * ROUNDS * lookups_per_run


def test_interner_encoding_is_consistent_across_threads():
    # Many threads encoding overlapping columns must agree: every id decodes
    # back to the value it was interned for, equal values share one id and
    # ids stay dense — across all 8 threads.  Known values resolve lock-free
    # and only new ones are stored under the lock (value before id; decode
    # is lock-free too).  Half-warm columns start with a value interned
    # beforehand, so each takes the lock-free pass, and alternate it with
    # values nobody has stored yet, which the threads race to store in the
    # locked fix-up while the others read; every round a fresh interner.
    columns = [[f"v{(14 * worker + offset) % 40}" for offset in range(120)]
               for worker in range(THREADS)]
    half = [f"v{index}" for index in range(0, 40, 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seeded in [[]] * (ROUNDS // 2) + [half] * (ROUNDS // 2):
            interner = ValueInterner()
            interner.encode(seeded)
            before = interner.locked_cells
            encoded = [None] * THREADS

            def worker(index):
                encoded[index] = interner.encode(columns[index])
                assert interner.encode(columns[index]) == encoded[index]

            _hammer(worker)
            codes = {}
            for index in range(THREADS):
                decoded = interner.decode(encoded[index])
                assert decoded == columns[index]
                for value, code in zip(columns[index], encoded[index]):
                    # One value, one id — no duplicate interning under the race.
                    assert codes.setdefault(value, code) == code
            assert sorted(codes.values()) == list(range(len(interner))) \
                == list(range(40))
            # Every new value was stored under the lock by some thread; a
            # warm re-encode resolved nothing there.
            locked = interner.locked_cells - before
            assert 40 - len(seeded) <= locked <= THREADS * 120
            if seeded:
                assert locked <= THREADS * 60
    finally:
        sys.setswitchinterval(interval)


def test_key_codes_agree_and_count_every_overflow_row_across_threads():
    """8 threads race ``key_codes`` on cold storages that share key tuples.

    Packing takes no lock and the overflow rows go through the interner's,
    so every thread must read equal arrays, and equal tuples equal codes
    across storages.  ``key_overflow_rows`` counts the rows whose fallback
    code was actually *computed*: a ``_code_cache`` hit counts nothing, while
    threads racing on one cold key each compute — and each count — it.  The
    total therefore lies between one and ``THREADS`` times the storages'
    overflow rows, and must equal exactly what reached the interner: a lost
    read-add-store update would leave it short.
    """
    width, storages, rows = 4, 240, 6
    radix = key_radix(width)
    attributes = tuple(f"K{index}" for index in range(width))
    interned_rows = []

    class CountingInterner(ValueInterner):
        def combine(self, columns):
            interned_rows.append(len(columns[0]))  # list.append is atomic
            return super().combine(columns)

    interner = CountingInterner()
    blocks, overflow_rows = [], 0
    for storage in range(storages):
        # Every third row carries an id at or past the radix; the tuples
        # repeat across storages, so the threads also race inside combine.
        tuples = [tuple((row + part) % 5 + (radix if row % 3 == 0 else 0)
                        for part in range(width))
                  for row in range(storage % 4, storage % 4 + rows)]
        overflow_rows += sum(max(key) >= radix for key in tuples)
        columns = {attribute: array("q", (key[index] for key in tuples))
                   for index, attribute in enumerate(attributes)}
        blocks.append((tuples, ColumnBlock._from_ids(
            f"s{storage}", attributes, columns, rows, interner)))
    seen = [None] * THREADS

    def worker(index):
        # Each thread starts on its own stretch of cold storages, so the
        # fallback (and its counter) runs on all threads at once.
        start = index * storages // THREADS
        codes = {}
        for _ in range(ROUNDS):
            for position in [*range(start, storages), *range(start)]:
                read = blocks[position][1].key_codes(attributes).tobytes()
                assert codes.setdefault(position, read) == read
        seen[index] = codes

    before = column_cache_info()["key_overflow_rows"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _hammer(worker)
    finally:
        sys.setswitchinterval(interval)
    counted = column_cache_info()["key_overflow_rows"] - before

    assert all(codes == seen[0] for codes in seen)
    assert counted == sum(interned_rows)
    assert overflow_rows <= counted <= THREADS * overflow_rows
    code_of = {}
    for tuples, block in blocks:
        for key, code in zip(tuples, block.key_codes(attributes)):
            assert (code < 0) == (max(key) >= radix)
            assert code_of.setdefault(key, code) == code
    assert len(set(code_of.values())) == len(code_of)


def test_parallel_execute_many_matches_serial(chain_database, cycle_database):
    session = EngineSession()
    prepared = session.prepare(chain_database)
    databases = [chain_database] * 6
    serial = prepared.execute_many(databases)
    with ExecutionPool(max_workers=THREADS) as pool:
        parallel = prepared.execute_many(databases, pool=pool)
    for left, right in zip(serial.relations, parallel.relations):
        assert frozenset(left.rows) == frozenset(right.rows)
    assert [r.statistics.output_size for r in serial.results] \
        == [r.statistics.output_size for r in parallel.results]


def test_execute_many_on_a_shared_pool(chain_database):
    session = EngineSession()
    prepared = session.prepare(chain_database)
    with ExecutionPool(max_workers=4) as pool:
        batch = prepared.execute_many([chain_database] * 4, pool=pool)
        assert len(batch.results) == 4
        assert pool.snapshot()["completed"] == 4
