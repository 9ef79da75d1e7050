"""The payload memo: a warm answer's wire rows are sorted and encoded once, on its result storage.

The service serialises a deferred-decode answer through
:meth:`ColumnBlock.wire_payload`, which files the rows — sorted by their list
``repr`` and frozen as a tuple of tuples — in the block storage's derived
cache under ``("payload", name, attributes, selection bytes)``.  A warm
re-execution ends on the same result storage and selection, so it is handed
the very rows sorted before; anything that changes the key — another name,
column order or selection, a fresh database, a new interner generation, an
evicted cache — sorts again.  The same entry holds the document's JSON text,
so a warm answer served over HTTP encodes no row.  Whichever way,
``json.dumps`` of the document must equal today's inline serialiser and the
``repro.relational`` answer byte for byte.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core.nodes import sorted_nodes
from repro.engine import EngineSession
from repro.engine.columnar import ColumnBlock, clear_column_caches, column_cache_info
from repro.engine.columnar.block import _DERIVED_CACHE_CAP
from repro.generators import (
    generate_database,
    skewed_chain_database,
    skewed_chain_endpoints,
    triangle_core_chain,
)
from repro.relational import (
    Database,
    DatabaseSchema,
    naive_join,
    yannakakis_join,
)
from repro.service import QueryService, ServiceClient, ServiceServer
from repro.service.server import _json_bytes

NAME = "answer"


def acyclic_case(seed: int = 0):
    return skewed_chain_database(4, heads=4, fanout=3, junction_values=2,
                                 seed=seed), skewed_chain_endpoints(4)


def cyclic_case(seed: int = 7):
    schema = DatabaseSchema.from_hypergraph(triangle_core_chain(3))
    return generate_database(schema, universe_rows=40, domain_size=4,
                             dangling_fraction=0.4, seed=seed), None


def single_column_case():
    """One output column holding ``1``, ``2`` and ``10``: list and tuple
    ``repr`` order them differently (``[10] < [1]`` but ``(1,) < (10,)``)."""
    schema = DatabaseSchema.from_dict({"R": ("A", "B"), "S": ("B", "C")})
    rows = {"R": [{"A": a, "B": a % 2} for a in (1, 2, 10)],
            "S": [{"B": 0, "C": "x"}, {"B": 1, "C": "y"}]}
    return Database.from_rows(schema, rows), ("A",)


CASES = pytest.mark.parametrize("case", [acyclic_case, cyclic_case,
                                         single_column_case],
                                ids=["acyclic", "cyclic", "single-column"])


def oracle_document(database, outputs) -> str:
    """The ``repro.relational`` answer serialised row by row."""
    if database.schema.is_acyclic():
        answer = yannakakis_join(database, outputs).relation
    else:
        answer = naive_join(database, outputs)[0]
    attributes = tuple(sorted_nodes(answer.schema.attribute_set))
    rows = sorted(([row[attribute] for attribute in attributes]
                   for row in answer.rows), key=repr)
    return json.dumps({"name": NAME,
                       "columns": [str(attribute) for attribute in attributes],
                       "rows": rows, "row_count": len(rows)})


def inline_document(block: ColumnBlock) -> str:
    """The serialiser the memo replaced: gather, box, ``repr``-sort per call."""
    rows = sorted(map(list, block.iter_rows()), key=repr)
    return json.dumps({"name": NAME,
                       "columns": [str(attribute) for attribute in block.attributes],
                       "rows": rows, "row_count": len(rows)})


def payload_counts():
    info = column_cache_info()
    return info["payload_hits"], info["payload_misses"]


class Service:
    """A ``QueryService`` over named databases, one prepared ``answer`` query."""

    def __init__(self, outputs, **databases):
        self.service = QueryService(EngineSession())
        for name, database in databases.items():
            self.service.add_database(name, database)
        prepare = {"database": next(iter(databases)), "name": NAME}
        if outputs is not None:
            prepare["outputs"] = [str(attribute) for attribute in outputs]
        self.handle = self.call("prepare", **prepare)["query"]

    def call(self, method, **params):
        status, envelope = self.service.handle(
            {"version": 1, "method": method, "client": "memo", "id": "r",
             "params": params})
        assert status == 200, envelope
        return envelope["result"]

    def execute(self, database="db"):
        return self.call("execute", query=self.handle,
                         database=database)["relation"]

    def close(self):
        self.service.pool.shutdown(wait=True)


@pytest.fixture
def serve():
    opened = []

    def open_service(outputs, **databases):
        opened.append(Service(outputs, **databases))
        return opened[-1]

    yield open_service
    for service in opened:
        service.close()


def result_block(database, outputs):
    """The block the service's execute ends on (same name, same storage)."""
    return EngineSession(decode="block").prepare(
        database, outputs, name=NAME).execute(database).block


@CASES
def test_a_warm_execute_returns_the_same_rows(case, serve):
    database, outputs = case()
    service = serve(outputs, db=database)
    first = service.execute()
    hits, misses = payload_counts()
    second = service.execute()
    assert second["rows"] is first["rows"]
    assert payload_counts() == (hits + 1, misses)
    assert json.dumps(second) == json.dumps(first)


@CASES
def test_the_document_is_byte_identical_to_both_references(case, serve):
    database, outputs = case()
    service = serve(outputs, db=database)
    expected = oracle_document(database, outputs)
    for _ in range(2):          # the miss, then the memoised hit
        assert json.dumps(service.execute()) == expected
    assert inline_document(result_block(database, outputs)) == expected


def test_single_column_rows_sort_in_list_repr_order(serve):
    database, outputs = single_column_case()
    rows = serve(outputs, db=database).execute()["rows"]
    assert [list(row) for row in rows] == [[10], [1], [2]]
    assert sorted(rows, key=repr) != list(rows)  # tuple order differs


@CASES
def test_another_name_column_order_or_selection_misses(case, serve):
    database, outputs = case()
    served = serve(outputs, db=database).execute()["rows"]
    block = result_block(database, outputs)
    assert block.peek_wire_rows(NAME) is served

    hits, misses = payload_counts()
    renamed = block.wire_rows("other")
    assert renamed is not served and renamed == served
    assert block.wire_rows("other") is renamed
    assert payload_counts() == (hits + 1, misses + 1)

    if len(block.attributes) > 1:   # one column has one order: same block
        reversed_block = block.with_column_order(reversed(block.attributes))
        permuted = reversed_block.wire_rows(NAME)
        assert permuted == tuple(sorted(map(tuple, map(reversed, served)),
                                        key=lambda row: repr(list(row))))
        assert payload_counts() == (hits + 1, misses + 2)

    hits, misses = payload_counts()
    half = list(block.positions)[: len(block) // 2]
    selected = block.select(half).wire_rows(NAME)
    assert len(selected) == len(half) and set(selected) <= set(served)
    assert payload_counts() == (hits, misses + 1)
    # The other keys sit next to the answer's; none displaced it.
    assert block.peek_wire_rows(NAME) is served


@CASES
def test_a_fresh_database_misses(case, serve):
    database, outputs = case()
    fresh, _ = case()
    service = serve(outputs, db=database, fresh=fresh)
    rows = service.execute()["rows"]
    hits, misses = payload_counts()
    again = service.execute("fresh")["rows"]
    assert payload_counts() == (hits, misses + 1)
    assert again is not rows and again == rows


@CASES
def test_the_rows_survive_clear_column_caches(case, serve):
    database, outputs = case()
    service = serve(outputs, db=database)
    rows = service.execute()["rows"]
    clear_column_caches()
    try:
        hits, misses = payload_counts()
        document = service.execute()
        assert payload_counts() == (hits, misses + 1)
        assert document["rows"] is not rows
        assert json.dumps(document) == oracle_document(database, outputs)
    finally:
        clear_column_caches()


@CASES
def test_the_rows_survive_a_flooded_derived_cache(case, serve):
    database, outputs = case()
    service = serve(outputs, db=database)
    rows = service.execute()["rows"]
    block = result_block(database, outputs)
    for index in range(_DERIVED_CACHE_CAP):
        block.derived_put(("flood", index), index)
    assert block.peek_wire_rows(NAME) is None
    hits, misses = payload_counts()
    document = service.execute()
    assert payload_counts() == (hits, misses + 1)
    assert document["rows"] is not rows
    assert json.dumps(document) == oracle_document(database, outputs)
    assert service.execute()["rows"] is document["rows"]


@CASES
def test_eight_threads_on_one_handle_get_equal_bytes(case, serve):
    database, outputs = case()
    service = serve(outputs, db=database)
    expected = oracle_document(database, outputs)
    barrier = threading.Barrier(8)
    documents, errors = [None] * 8, []

    def run(slot: int) -> None:
        try:
            barrier.wait()
            for _ in range(5):
                documents[slot] = json.dumps(service.execute())
        except BaseException as error:  # surfaced below
            errors.append(error)

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert documents == [expected] * 8


@CASES
def test_a_batch_over_one_database_shares_one_memo(case, serve):
    database, outputs = case()
    service = serve(outputs, db=database)
    # Warm the engine without a payload: concurrent cold executes may each
    # publish their own result storage (last write wins).
    service.call("execute", query=service.handle, database="db",
                 include_rows=False)
    hits, misses = payload_counts()
    batch = service.call("execute_many", query=service.handle,
                         databases=["db", "db"], include_rows=True)
    first, second = batch["relations"]
    assert first["rows"] is second["rows"]
    assert payload_counts() == (hits + 1, misses + 1)
    assert service.execute()["rows"] is first["rows"]


@CASES
def test_a_callers_edits_never_reach_the_memo(case, serve):
    database, outputs = case()
    service = serve(outputs, db=database)
    request = {"version": 1, "method": "execute", "client": "memo", "id": "r",
               "params": {"query": service.handle, "database": "db"}}
    _, envelope = service.service.handle(request)
    edited = envelope["result"]["relation"]
    served = json.dumps(edited)
    rows = edited["rows"]
    edited["rows"] = list(reversed(rows))
    edited.pop("columns")
    # An edited document is encoded as edited, never as its stale memo.
    assert _json_bytes(envelope) == json.dumps(envelope).encode("utf-8")

    hits, misses = payload_counts()
    _, envelope = service.service.handle(request)
    document = envelope["result"]["relation"]
    assert document["rows"] is rows
    assert payload_counts() == (hits + 1, misses)
    assert _json_bytes(envelope) == json.dumps(envelope).encode("utf-8")
    assert json.dumps(document) == served == oracle_document(database, outputs)

    document["columns"].append("extra")
    assert _json_bytes(envelope) == json.dumps(envelope).encode("utf-8")
    assert json.dumps(service.execute()) == served


def _holds(document, target) -> bool:
    """Whether ``target`` is (by identity) inside the JSON-shaped ``document``."""
    if document is target:
        return True
    if isinstance(document, dict):
        return any(_holds(value, target) for value in document.values())
    if isinstance(document, list):
        return any(_holds(value, target) for value in document)
    return False


@CASES
def test_a_warm_http_execute_encodes_no_row_list(case, serve, monkeypatch):
    database, outputs = case()
    service = serve(outputs, db=database)
    with ServiceServer(service.service) as server:
        client = ServiceClient(server.url, client_id="memo")
        client.execute(service.handle, "db")            # the miss encodes
        rows = result_block(database, outputs).peek_wire_rows(NAME)
        assert rows is not None
        encoded = []
        dumps = json.dumps

        def spy(document, *args, **kwargs):
            assert not _holds(document, rows), "a warm execute re-encoded rows"
            encoded.append(document)
            return dumps(document, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", spy)
        hits, misses = payload_counts()
        answer = client.execute(service.handle, "db")
        monkeypatch.undo()
        client.close()
    assert encoded, "the spy saw no encode at all"
    assert payload_counts() == (hits + 1, misses)
    assert json.dumps(answer["relation"]) == oracle_document(database, outputs)


def test_a_spent_budget_stops_a_miss_before_any_row_is_built(serve, monkeypatch):
    # Warm the handle on one database, then execute a never-seen copy: its
    # payload would be a memo miss, but the deadline fires first.
    from repro.engine.session import PreparedQuery

    database, outputs = acyclic_case()
    fresh, _ = acyclic_case()
    service = serve(outputs, db=database, fresh=fresh)
    service.execute()
    run = PreparedQuery.execute

    def execute_then_overrun(self, database):
        result = run(self, database)
        time.sleep(0.3)
        return result

    gathered = []
    iter_rows = ColumnBlock.iter_rows
    monkeypatch.setattr(PreparedQuery, "execute", execute_then_overrun)
    monkeypatch.setattr(ColumnBlock, "iter_rows",
                        lambda self: gathered.append(self) or iter_rows(self))
    counts = payload_counts()
    status, envelope = service.service.handle(
        {"version": 1, "method": "execute", "client": "memo", "id": "r",
         "params": {"query": service.handle, "database": "fresh",
                    "deadline_seconds": 0.25}})
    assert status == 504
    assert envelope["error"]["phase"] == "payload"
    assert gathered == [] and payload_counts() == counts
