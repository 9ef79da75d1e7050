"""Property-based: a spliced response is byte-identical to the plain encode.

The query service memoises a warm answer's ``relation`` document as JSON text
on its result storage, and :func:`repro.service.server._json_bytes` writes a
response by encoding the envelope around the answer and splicing that text
in.  On :mod:`strategies`' random skewed acyclic and cyclic databases, under
every column backend, for ``execute`` and ``execute_many`` with and without
rows, on the memo miss and on the hit, with hostile request ids, an empty
query name and a value only ``default=str`` can encode:

* the bytes equal ``json.dumps(envelope, default=str).encode("utf-8")``;
* the decoded answer equals the :mod:`repro.relational` answer;
* an envelope whose answer is not its last value takes the plain encode and
  still gets the same bytes.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from properties.strategies import skewed_acyclic_databases, skewed_cyclic_databases

from repro.core.nodes import sorted_nodes
from repro.engine import EngineSession
from repro.engine.columnar import available_column_backends, column_cache_info
from repro.relational import Relation, naive_join, yannakakis_join
from repro.service import QueryService
from repro.service.server import _json_bytes, _memoised_tail

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: Query names: an ordinary one, and an empty one, which the document
#: carries as given (not the result block's own name).
NAMES = ("answer", "")

#: Request ids a naive splice would get wrong: JSON string delimiters, brace
#: runs that look like the envelope's end, escapes, non-ASCII (the encode is
#: ``ensure_ascii``), control characters and a lone surrogate.
HOSTILE_IDS = ('"', '}}', '"}}', '\\', '\\"}}', "\"relation\": {}}",
               "é", "漢字 ✓", "\x00\x1f\n\t\x7f", "\ud800", "")

request_ids = st.one_of(st.none(), st.sampled_from(HOSTILE_IDS),
                        st.text(max_size=8))


class Opaque:
    """A value ``json.dumps`` cannot encode: it is written as ``str(value)``."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __eq__(self, other) -> bool:
        return type(other) is Opaque and other.value == self.value

    def __hash__(self) -> int:
        return hash(("opaque", self.value))

    def __repr__(self) -> str:
        return f"Opaque({self.value!r})"

    def __str__(self) -> str:
        return f"⟨{self.value}⟩ \"}}"


def with_opaque_column(database, attribute):
    """``database`` with every value of ``attribute`` wrapped in :class:`Opaque`."""
    current = database
    for relation in database.relations():
        if attribute not in relation.schema.attribute_set:
            continue
        rows = [{name: Opaque(value) if name == attribute else value
                 for name, value in row.items()} for row in relation.rows]
        current = current.with_relation(Relation(relation.schema, rows))
    return current


@st.composite
def cases(draw):
    """A database, its outputs (``None`` = all), a column backend, a name."""
    database = draw(st.one_of(skewed_acyclic_databases(),
                              skewed_cyclic_databases()))
    attributes = sorted_nodes(database.schema.attributes)
    if draw(st.booleans()):
        database = with_opaque_column(database,
                                      draw(st.sampled_from(attributes)))
    outputs = None
    if draw(st.booleans()):
        outputs = draw(st.lists(st.sampled_from(attributes), min_size=1,
                                max_size=3, unique=True))
    backend = draw(st.sampled_from(available_column_backends()))
    return database, outputs, backend, draw(st.sampled_from(NAMES))


def oracle_relation(database, outputs, name):
    """The :mod:`repro.relational` answer as the decoded ``relation`` document."""
    if database.schema.is_acyclic():
        answer = yannakakis_join(database, outputs).relation
    else:
        answer = naive_join(database, outputs)[0]
    attributes = tuple(sorted_nodes(answer.schema.attribute_set))
    rows = sorted(([row[attribute] for attribute in attributes]
                   for row in answer.rows), key=repr)
    return json.loads(json.dumps(
        {"name": name, "columns": [str(attribute) for attribute in attributes],
         "rows": rows, "row_count": len(rows)}, default=str))


def encode(envelope) -> bytes:
    """Encode ``envelope`` both ways; they must agree."""
    wire = _json_bytes(envelope)
    assert wire == json.dumps(envelope, default=str).encode("utf-8")
    return wire


def payload_counts():
    info = column_cache_info()
    return info["payload_hits"], info["payload_misses"]


@SETTINGS
@given(case=cases(), request_id=request_ids)
def test_spliced_responses_are_byte_identical(case, request_id):
    database, outputs, backend, name = case
    service = QueryService(EngineSession()).add_database("db", database)
    try:
        def call(method, **params):
            status, envelope = service.handle(
                {"version": 1, "method": method, "client": "splice",
                 "id": request_id, "params": params})
            assert status == 200, envelope
            return envelope

        prepare = {"database": "db", "name": name,
                   "options": {"column_backend": backend}}
        if outputs is not None:
            prepare["outputs"] = [str(attribute) for attribute in outputs]
        handle = call("prepare", **prepare)["result"]["query"]
        expected = oracle_relation(database, outputs, name)

        # No rows: nothing to splice, the plain encode.
        envelope = call("execute", query=handle, database="db",
                        include_rows=False)
        assert _memoised_tail(envelope) is None
        encode(envelope)

        # The miss, then the hit: both splice.
        for memo_hit in (False, True):
            hits, misses = payload_counts()
            envelope = call("execute", query=handle, database="db")
            assert payload_counts() == ((hits + 1, misses) if memo_hit
                                        else (hits, misses + 1))
            assert _memoised_tail(envelope) is not None
            decoded = json.loads(encode(envelope))
            assert decoded["id"] == request_id
            assert decoded["result"]["relation"] == expected

        envelope = call("execute_many", query=handle, databases=["db", "db"],
                        include_rows=True)
        assert _memoised_tail(envelope) is not None
        assert json.loads(encode(envelope))["result"]["relations"] \
            == [expected, expected]
        encode(call("execute_many", query=handle, databases=["db"]))

        # The answer is not the result's last value, or the result is not
        # the envelope's: the plain encode, still the same bytes.
        envelope = call("execute", query=handle, database="db")
        result = envelope["result"]
        reordered = dict(envelope, result={"relation": result["relation"],
                                           **result})
        trailed = dict(envelope, trailer=Opaque(request_id))
        for shape in (reordered, trailed):
            assert _memoised_tail(shape) is None
            assert json.loads(encode(shape))["result"]["relation"] == expected
    finally:
        service.pool.shutdown(wait=True)
