"""Registry-driven fuzz of ``QueryService.handle``: no request is a 500.

Requests are generated from :data:`~repro.service.protocol.METHOD_REGISTRY`:
every declared method, its declared parameters plus one undeclared name.  A
request starts well formed — the service's real handles, database names and
attribute names, numbers that include the JSON extremes (``10**400``, NaN,
±infinity) — and then up to two parameters are overwritten with any JSON
value: bools, huge integers, nested lists and dicts.  Every response must be
an envelope carrying ``ok``, never a 500 and never an ``internal-error``,
and must leave the admission gate empty: nothing in flight, nothing queued.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.engine import EngineSession
from repro.generators import (
    generate_consistent_database,
    k_cycle_hypergraph,
    skewed_chain_database,
)
from repro.relational import DatabaseSchema
from repro.service import QueryService
from repro.service.protocol import METHOD_REGISTRY, WIRE_OPTION_FIELDS

SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

CLIENT = "fuzz"
UNDECLARED = "undeclared"
DATABASES = ("chain", "cycle")
ATTRIBUTES = ("C0", "C1", "C3", "R0", "R2")
#: A fresh service numbers its handles from 1; the fixture prepares these.
HANDLES = ("q-1", "q-2")
#: A handle and a database name the service does not know (404s).
UNKNOWN = ("q-0", "nowhere")

#: JSON numbers a parser hands over unchanged, each an edge of some rule.
EXTREME_NUMBERS = (10 ** 400, -10 ** 400, float("nan"), float("inf"),
                   float("-inf"), 0, -1, 1e-300, 1e300)

WORDS = (st.sampled_from(HANDLES + DATABASES + ATTRIBUTES + UNKNOWN)
         | st.text(max_size=4))
NUMBERS = (st.sampled_from(EXTREME_NUMBERS)
           | st.floats(min_value=0.001, max_value=5.0))
JSON = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.integers() | st.floats() | WORDS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(sorted(WIRE_OPTION_FIELDS)) | WORDS,
                      children, max_size=3),
    max_leaves=6)

#: A well-formed value for every declared parameter name.
WELL_FORMED = {
    "query": st.sampled_from(HANDLES + UNKNOWN[:1]),
    "database": st.sampled_from(DATABASES + UNKNOWN[1:]),
    "databases": st.lists(st.sampled_from(DATABASES + UNKNOWN[1:]),
                          min_size=1, max_size=3),
    "outputs": st.lists(st.sampled_from(ATTRIBUTES), max_size=3),
    "name": st.text(max_size=4),
    "options": st.dictionaries(st.sampled_from(sorted(WIRE_OPTION_FIELDS)),
                               JSON, max_size=2),
    "include_rows": st.booleans(),
    "analyze": st.booleans(),
    "deadline_seconds": NUMBERS,
    "max_workers": st.integers(1, 4),
}


@st.composite
def requests(draw):
    spec = draw(st.sampled_from(tuple(METHOD_REGISTRY.values())))
    params = {param.name: draw(WELL_FORMED[param.name])
              for param in spec.required + spec.optional
              if param in spec.required or draw(st.booleans())}
    names = [param.name for param in spec.required + spec.optional]
    for _ in range(draw(st.integers(0, 2))):
        params[draw(st.sampled_from(names + [UNDECLARED]))] = draw(JSON)
    return {"version": 1, "method": spec.name, "client": CLIENT,
            "id": draw(st.none() | st.text(max_size=4)), "params": params}


def test_every_declared_parameter_has_a_well_formed_value():
    declared = {param.name for spec in METHOD_REGISTRY.values()
                for param in spec.required + spec.optional}
    assert declared == set(WELL_FORMED)


@pytest.fixture(scope="module")
def service():
    chain = skewed_chain_database(3, heads=10, fanout=5, junction_values=3,
                                  seed=3)
    cycle = generate_consistent_database(
        DatabaseSchema.from_hypergraph(k_cycle_hypergraph(4)),
        universe_rows=30, domain_size=6, seed=5)
    service = QueryService(EngineSession(monitor=True),
                           databases=dict(zip(DATABASES, (chain, cycle))))
    # Hold the prepared queries: a handle lives only as long as its query.
    held = []
    for handle, database in zip(HANDLES, DATABASES):
        status, envelope = service.handle({
            "method": "prepare", "client": CLIENT,
            "params": {"database": database}})
        assert (status, envelope["result"]["query"]) == (200, handle)
        held.append(service.clients.session(CLIENT).prepared(handle))
    yield service
    service.pool.shutdown(wait=True)


def _huge_deadline(method, params):
    """A request whose deadline is an integer no float can hold."""
    return {"method": method, "client": CLIENT, "params": params}


@SETTINGS
@given(documents=st.lists(requests(), min_size=1, max_size=3))
@example(documents=[
    _huge_deadline("prepare", {"database": "chain",
                               "options": {"deadline_seconds": 10 ** 400}}),
    _huge_deadline("execute", {"query": "q-1", "database": "chain",
                               "deadline_seconds": 10 ** 400}),
    _huge_deadline("execute_many", {"query": "q-1", "databases": ["chain"],
                                    "deadline_seconds": 10 ** 400}),
])
def test_every_request_gets_an_envelope_and_releases_its_slot(service,
                                                              documents):
    for document in documents:
        status, envelope = service.handle(document)
        assert isinstance(envelope, dict) and "ok" in envelope, envelope
        assert envelope["ok"] is (status == 200), (status, envelope)
        if not envelope["ok"]:
            assert status != 500, (document, envelope)
            assert envelope["error"]["code"] != "internal-error", \
                (document, envelope)
        admission = service.admission.snapshot()
        assert (admission["in_flight"], admission["queued"]) == (0, 0)
