"""The query service: handler round trips, the HTTP front-end, drain."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.engine.session import EngineSession
from repro.generators import (
    generate_consistent_database,
    k_cycle_hypergraph,
    skewed_chain_database,
    skewed_chain_endpoints,
)
from repro.relational import DatabaseSchema
from repro.service import (
    AdmissionConfig,
    QueryService,
    ServiceCallError,
    ServiceClient,
    ServiceServer,
)
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.server import WIRE_OPTION_FIELDS
from repro.telemetry import validate_query_log


@pytest.fixture(scope="module")
def chain_database():
    return skewed_chain_database(3, heads=10, fanout=5, junction_values=3,
                                 seed=3)


@pytest.fixture(scope="module")
def cycle_database():
    schema = DatabaseSchema.from_hypergraph(k_cycle_hypergraph(4))
    return generate_consistent_database(schema, universe_rows=30,
                                        domain_size=6, seed=5)


@pytest.fixture()
def service(chain_database, cycle_database):
    service = QueryService(EngineSession(monitor=True))
    service.add_database("chain", chain_database)
    service.add_database("cycle", cycle_database)
    yield service
    service.pool.shutdown(wait=True)


def _rpc(service, method, params=None, *, client="tenant-1", request_id="r1"):
    return service.handle({"version": PROTOCOL_VERSION, "method": method,
                           "client": client, "id": request_id,
                           "params": params or {}})


def _prepare(service, database="chain", *, client="tenant-1", **params):
    status, envelope = _rpc(service, "prepare",
                            {"database": database, **params}, client=client)
    assert status == 200, envelope
    return envelope["result"]["query"]


# --------------------------------------------------------------------------- #
# Handler round trips (no HTTP)
# --------------------------------------------------------------------------- #
def test_prepare_returns_a_handle_and_the_resolved_options(service):
    status, envelope = _rpc(service, "prepare", {
        "database": "chain",
        "outputs": [str(a) for a in skewed_chain_endpoints(3)],
        "options": {"adaptive": True}})
    assert status == 200
    result = envelope["result"]
    assert result["query"] == "q-1"
    assert result["kind"] == "acyclic"
    assert result["options"]["adaptive"] is True
    assert result["fingerprint"]


def test_execute_round_trip_matches_the_engine(service, chain_database):
    handle = _prepare(service)
    status, envelope = _rpc(service, "execute",
                            {"query": handle, "database": "chain"})
    assert status == 200
    result = envelope["result"]
    direct = EngineSession().execute(chain_database, chain_database)
    assert result["row_count"] == len(direct.relation.rows)
    assert len(result["relation"]["rows"]) == result["row_count"]
    assert result["statistics"]["plan_cache_hit"] in (True, False)
    # The wire rows are deterministically sorted: a repeat is byte-identical.
    _, again = _rpc(service, "execute",
                    {"query": handle, "database": "chain"})
    assert json.dumps(envelope["result"]["relation"]) \
        == json.dumps(again["result"]["relation"])


def test_execute_on_the_cyclic_tenant(service):
    handle = _prepare(service, "cycle")
    status, envelope = _rpc(service, "execute",
                            {"query": handle, "database": "cycle",
                             "include_rows": False})
    assert status == 200
    assert "relation" not in envelope["result"]
    assert envelope["result"]["row_count"] >= 0


def test_execute_many_round_trip(service):
    handle = _prepare(service)
    status, envelope = _rpc(service, "execute_many", {
        "query": handle, "databases": ["chain", "chain"],
        "max_workers": 2, "include_rows": True})
    assert status == 200
    result = envelope["result"]
    assert result["databases"] == ["chain", "chain"]
    assert len(result["row_counts"]) == 2
    assert result["row_counts"][0] == result["row_counts"][1]
    assert len(result["relations"]) == 2


def test_execute_many_max_workers_picks_serial_or_the_batch_pool(service):
    handle = _prepare(service)
    batch = {"query": handle, "databases": ["chain"] * 4}
    before = service.pool.snapshot()["submitted"]
    status, _ = _rpc(service, "execute_many", {**batch, "max_workers": 1})
    assert status == 200
    # 1 runs serially in the request thread: the batch pool sees no job.
    assert service.pool.snapshot()["submitted"] == before
    status, _ = _rpc(service, "execute_many", {**batch, "max_workers": 2})
    assert status == 200
    # Any other value hands every run to the shared batch pool, whose own
    # size (not max_workers) bounds the concurrency.
    assert service.pool.snapshot()["submitted"] == before + 4


def test_explain_renders_the_plan(service):
    handle = _prepare(service)
    status, envelope = _rpc(service, "explain",
                            {"query": handle, "database": "chain"})
    assert status == 200
    assert "acyclic dispatch" in envelope["result"]["explain"]


def test_explain_analyze_reports_a_numeric_output_actual(service):
    # The service defers decode, and the output actual comes from the
    # ``decode`` span — which a deferred run must still open.
    for database in ("chain", "cycle"):
        handle = _prepare(service, database)
        status, envelope = _rpc(service, "explain", {
            "query": handle, "database": database, "analyze": True})
        assert status == 200
        output = next(line for line in envelope["result"]["explain"].splitlines()
                      if line.lstrip().startswith("output:"))
        assert output.rsplit("actual=", 1)[1].isdigit(), output


def test_explain_analyze_requires_a_database(service):
    handle = _prepare(service)
    status, envelope = _rpc(service, "explain",
                            {"query": handle, "analyze": True})
    assert status == 400
    assert envelope["error"]["code"] == "missing-param"


def test_stats_reports_the_service_shape(service):
    _prepare(service)
    status, envelope = _rpc(service, "stats")
    assert status == 200
    result = envelope["result"]
    assert result["databases"] == ["chain", "cycle"]
    assert result["admission"]["in_flight"] == 0
    assert result["pool"]["max_workers"] >= 1
    assert any(s["client"] == "tenant-1"
               for s in result["clients"]["sessions"])


# --------------------------------------------------------------------------- #
# The result boundary: rows are serialised from the id block
# --------------------------------------------------------------------------- #
@pytest.fixture()
def row_constructions(monkeypatch):
    """Count every ``Row`` built, through either of its two constructors."""
    from repro.relational.relation import Row

    built = []
    from_values, init = Row._from_values.__func__, Row.__init__
    monkeypatch.setattr(Row, "_from_values", classmethod(
        lambda cls, schema, values:
        built.append(values) or from_values(cls, schema, values)))
    monkeypatch.setattr(Row, "__init__", lambda self, values:
                        built.append(values) or init(self, values))
    return built


@pytest.mark.parametrize("database", ["chain", "cycle"])
def test_a_columnar_query_builds_no_rows_for_the_wire(service, database,
                                                      row_constructions):
    handle = _prepare(service, database)
    for include_rows in (False, True):
        status, envelope = _rpc(service, "execute", {
            "query": handle, "database": database,
            "include_rows": include_rows})
        assert status == 200
        assert envelope["result"]["row_count"] > 0
    assert len(envelope["result"]["relation"]["rows"]) \
        == envelope["result"]["row_count"]
    status, envelope = _rpc(service, "execute_many", {
        "query": handle, "databases": [database] * 2, "include_rows": True})
    assert status == 200 and len(envelope["result"]["relations"]) == 2
    assert row_constructions == []


@pytest.mark.parametrize("option, value", [
    ("execution_mode", "row"), ("shards", 2), ("shard_executor", "process"),
], ids=["execution_mode", "shards", "shard_executor"])
def test_execution_mode_is_not_a_wire_option(service, option, value):
    """Options the engine no longer has are a typed 400 for an old client."""
    status, envelope = _rpc(service, "prepare", {
        "database": "chain", "options": {option: value}})
    assert status == 400
    assert envelope["error"]["code"] == "invalid-param"
    message = envelope["error"]["message"]
    assert option in message
    assert all(field in message for field in WIRE_OPTION_FIELDS)


def test_the_payload_phase_is_reported_when_rows_are_included(service):
    handle = _prepare(service)
    _, with_rows = _rpc(service, "execute",
                        {"query": handle, "database": "chain"})
    _, without = _rpc(service, "execute", {
        "query": handle, "database": "chain", "include_rows": False})
    assert with_rows["result"]["statistics"]["phase_seconds"]["payload"] > 0
    assert "payload" not in without["result"]["statistics"]["phase_seconds"]
    _, batch = _rpc(service, "execute_many", {
        "query": handle, "databases": ["chain", "chain"],
        "include_rows": True})
    assert batch["result"]["statistics"]["phase_seconds"]["payload"] > 0
    _, bare_batch = _rpc(service, "execute_many", {
        "query": handle, "databases": ["chain", "chain"]})
    assert "payload" not in \
        bare_batch["result"]["statistics"]["phase_seconds"]


def test_the_payload_is_a_span_carrying_its_row_count(service):
    from repro.telemetry.tracing import Tracer, use_tracer

    handle = _prepare(service)
    tracer = Tracer()
    with use_tracer(tracer):
        _, envelope = _rpc(service, "execute",
                           {"query": handle, "database": "chain"})
        _rpc(service, "execute", {"query": handle, "database": "chain",
                                  "include_rows": False})
    (payload,) = [record for record in tracer.records
                  if record["name"] == "payload"]
    assert payload["attributes"]["rows"] == envelope["result"]["row_count"]


@pytest.mark.parametrize("method, params", [
    ("execute", {"database": "chain"}),
    ("execute_many", {"databases": ["chain"], "include_rows": True}),
])
def test_a_budget_spent_by_the_engine_stops_before_the_payload(
        service, monkeypatch, method, params):
    # The rows are built inside the deadline scope, behind one check: when
    # the engine has used the budget up, no row list is ever materialised.
    from repro.engine.session import PreparedQuery
    from repro.service import server as server_module

    handle = _prepare(service)
    _rpc(service, "execute", {"query": handle, "database": "chain"})  # warm
    run = PreparedQuery.execute

    def execute_then_overrun(self, database):
        result = run(self, database)
        time.sleep(0.3)
        return result

    built = []
    build = server_module._relation_payload
    monkeypatch.setattr(PreparedQuery, "execute", execute_then_overrun)
    monkeypatch.setattr(server_module, "_relation_payload",
                        lambda result: built.append(result) or build(result))
    status, envelope = _rpc(service, method, {
        "query": handle, "deadline_seconds": 0.25, **params})
    assert status == 504
    assert envelope["error"]["code"] == "timeout"
    assert envelope["error"]["phase"] == "payload"
    assert built == []


# --------------------------------------------------------------------------- #
# Error envelopes
# --------------------------------------------------------------------------- #
def test_unknown_method_envelope(service):
    status, envelope = _rpc(service, "drop_tables")
    assert status == 400
    assert envelope["ok"] is False
    assert envelope["error"]["code"] == "unknown-method"
    assert envelope["id"] == "r1"


def test_unknown_database_is_a_404(service):
    status, envelope = _rpc(service, "prepare", {"database": "prod"})
    assert status == 404
    assert envelope["error"]["code"] == "unknown-database"


def test_unknown_handle_is_a_404(service):
    status, envelope = _rpc(service, "execute",
                            {"query": "q-99", "database": "chain"})
    assert status == 404
    assert envelope["error"]["code"] == "unknown-query"


def test_handles_are_tenant_scoped(service):
    handle = _prepare(service, client="tenant-1")
    status, envelope = _rpc(service, "execute",
                            {"query": handle, "database": "chain"},
                            client="tenant-2")
    assert status == 404
    assert envelope["error"]["code"] == "unknown-query"


def test_non_wire_options_are_rejected(service):
    status, envelope = _rpc(service, "prepare", {
        "database": "chain", "options": {"decode": "block"}})
    assert status == 400
    assert envelope["error"]["code"] == "invalid-param"
    assert "decode" in envelope["error"]["message"]


def test_invalid_option_values_are_rejected(service):
    status, envelope = _rpc(service, "prepare", {
        "database": "chain", "options": {"column_backend": "quantum"}})
    assert status == 400
    assert envelope["error"]["code"] == "invalid-param"


@pytest.mark.parametrize("method, params", [
    ("prepare", {"options": {"deadline_seconds": float("nan")}}),
    ("prepare", {"options": {"deadline_seconds": float("inf")}}),
    ("prepare", {"options": {"sample_limit": 0}}),
    ("prepare", {"options": {"cluster_row_bound": -1}}),
    ("prepare", {"options": {"adaptive": "yes"}}),
    ("prepare", {"options": {"trace": 3}}),
    ("execute", {"deadline_seconds": float("nan")}),
    ("execute", {"deadline_seconds": float("inf")}),
    ("execute_many", {"deadline_seconds": float("nan")}),
    ("execute_many", {"deadline_seconds": float("inf")}),
], ids=["prepare-deadline-nan", "prepare-deadline-inf", "prepare-sample-limit-0",
        "prepare-row-bound-negative", "prepare-adaptive-str", "prepare-trace-int",
        "execute-deadline-nan", "execute-deadline-inf",
        "execute-many-deadline-nan", "execute-many-deadline-inf"])
def test_a_bad_option_is_a_400_before_anything_runs(service, method, params):
    """``json.loads`` accepts NaN and Infinity; neither is a usable budget."""
    if method == "prepare":
        params = {"database": "chain", **params}
    elif method == "execute":
        params = {"query": _prepare(service), "database": "chain", **params}
    else:
        params = {"query": _prepare(service), "databases": ["chain"], **params}
    status, envelope = _rpc(service, method, params)
    assert status == 400, envelope
    assert envelope["error"]["code"] == "invalid-param"


def test_malformed_document_is_a_400(service):
    status, envelope = _rpc(service, "execute", {"query": "q-1"})
    assert status == 400
    assert envelope["error"]["code"] == "missing-param"


def test_deadline_breach_maps_to_504(service):
    handle = _prepare(service)
    status, envelope = _rpc(service, "execute", {
        "query": handle, "database": "chain", "deadline_seconds": 1e-9})
    assert status == 504
    assert envelope["error"]["code"] == "timeout"
    assert envelope["error"]["deadline_seconds"] == 1e-9
    assert envelope["error"]["phase"]


def test_errors_count_against_the_client(service):
    _rpc(service, "execute", {"query": "q-404", "database": "chain"})
    session = [s for s in service.clients.snapshot()["sessions"]
               if s["client"] == "tenant-1"][0]
    assert session["errors"] >= 1


# --------------------------------------------------------------------------- #
# Admission through the handler
# --------------------------------------------------------------------------- #
def test_saturated_admission_returns_429(chain_database):
    service = QueryService(
        EngineSession(),
        admission=AdmissionConfig(max_in_flight=1,
                                  max_in_flight_per_client=1, max_queued=0,
                                  queue_timeout_seconds=0.2))
    service.add_database("chain", chain_database)
    handle = _prepare(service)
    # Occupy the single slot out-of-band, then ask for another execution.
    service.admission.acquire("someone-else")
    try:
        status, envelope = _rpc(service, "execute",
                                {"query": handle, "database": "chain"})
    finally:
        service.admission.release("someone-else")
        service.pool.shutdown(wait=True)
    assert status == 429
    assert envelope["error"]["code"] == "overloaded"
    assert envelope["error"]["retry_after_seconds"] > 0


def test_draining_service_returns_503(service):
    handle = _prepare(service)
    service.begin_drain()
    status, envelope = _rpc(service, "execute",
                            {"query": handle, "database": "chain"})
    assert status == 503
    assert envelope["error"]["code"] == "shutting-down"
    # stats is not admission-gated: still reachable during drain.
    status, _ = _rpc(service, "stats")
    assert status == 200


# --------------------------------------------------------------------------- #
# The HTTP front-end
# --------------------------------------------------------------------------- #
@pytest.fixture()
def server(service):
    with ServiceServer(service) as running:
        yield running


def test_http_execute_round_trip(server, chain_database):
    client = ServiceClient(server.url, client_id="http-tenant")
    handle = client.prepare(
        "chain", outputs=[str(a) for a in skewed_chain_endpoints(3)])
    answer = client.execute(handle, "chain")
    direct = EngineSession().execute(chain_database, chain_database,
                                     skewed_chain_endpoints(3))
    assert answer["row_count"] == len(direct.relation.rows)
    batch = client.execute_many(handle, ["chain", "chain"], max_workers=2)
    assert batch["row_counts"] == [answer["row_count"]] * 2
    assert "dispatch" in client.explain(handle)
    client.close()


def test_http_error_envelopes_carry_codes(server):
    client = ServiceClient(server.url)
    with pytest.raises(ServiceCallError) as caught:
        client.execute("q-99", "chain")
    assert caught.value.code == "unknown-query"
    assert caught.value.http_status == 404
    client.close()


def test_http_rejects_non_json_bodies(server):
    client = ServiceClient(server.url)
    status, _, payload = client._request("POST", "/v1", b"not json")
    assert status == 400
    assert json.loads(payload)["error"]["code"] == "malformed-request"
    client.close()


def _raw_exchange(server, request: bytes) -> bytes:
    """Send raw bytes, read until the server closes the connection."""
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(request)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return received
            received += chunk


def _assert_framing_error(response: bytes, status_line: bytes) -> None:
    head, _, body = response.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    assert lines[0] == status_line
    assert b"Connection: close" in lines
    envelope = json.loads(body)
    assert envelope["ok"] is False
    assert envelope["error"]["code"] == "malformed-request"


def test_a_non_integer_content_length_is_a_400(server):
    _assert_framing_error(
        _raw_exchange(server, b"POST /v1 HTTP/1.1\r\nHost: x\r\n"
                              b"Content-Length: twelve\r\n\r\n"),
        b"HTTP/1.1 400 Bad Request")


def test_an_oversized_content_length_is_a_413(server):
    from repro.service.protocol import _MAX_BODY_BYTES

    _assert_framing_error(
        _raw_exchange(server, b"POST /v1 HTTP/1.1\r\nHost: x\r\n"
                              b"Content-Length: %d\r\n\r\n"
                              % (_MAX_BODY_BYTES + 1)),
        b"HTTP/1.1 413 Content Too Large")


def test_a_malformed_request_line_is_a_400(server):
    _assert_framing_error(_raw_exchange(server, b"GARBAGE\r\n\r\n"),
                          b"HTTP/1.1 400 Bad Request")


def test_more_than_a_hundred_headers_is_a_400(server):
    headers = b"".join(b"X-Filler-%d: y\r\n" % index for index in range(101))
    _assert_framing_error(
        _raw_exchange(server, b"GET /stats HTTP/1.1\r\n" + headers + b"\r\n"),
        b"HTTP/1.1 400 Bad Request")


def test_an_over_long_request_line_is_a_400(server):
    _assert_framing_error(
        _raw_exchange(server, b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n"),
        b"HTTP/1.1 400 Bad Request")


def test_an_over_long_header_line_is_a_400(server):
    _assert_framing_error(
        _raw_exchange(server, b"GET /stats HTTP/1.1\r\nX-Filler: "
                              + b"y" * 70_000 + b"\r\n\r\n"),
        b"HTTP/1.1 400 Bad Request")


def test_a_hundred_headers_are_served(server):
    headers = b"".join(b"X-Filler-%d: y\r\n" % index for index in range(99))
    response = _raw_exchange(server, b"GET /stats HTTP/1.1\r\n" + headers
                             + b"Connection: close\r\n\r\n")
    assert response.startswith(b"HTTP/1.1 200 OK\r\n")


def test_a_chunked_request_is_a_400(server):
    _assert_framing_error(
        _raw_exchange(server, b"POST /v1 HTTP/1.1\r\nHost: x\r\n"
                              b"Transfer-Encoding: chunked\r\n\r\n"
                              b"2\r\n{}\r\n0\r\n\r\n"),
        b"HTTP/1.1 400 Bad Request")


def test_the_server_keeps_serving_after_a_framing_error(server):
    _raw_exchange(server, b"GARBAGE\r\n\r\n")
    client = ServiceClient(server.url)
    assert client.stats()["protocol_version"] == PROTOCOL_VERSION
    client.close()


# --------------------------------------------------------------------------- #
# The GET routes
# --------------------------------------------------------------------------- #
_JSON_TYPE = "application/json; charset=utf-8"
_METRICS_TYPE = "text/plain; version=0.0.4; charset=utf-8"
_MONITOR_ROUTES = ("/metrics", "/health", "/querylog", "/quality")
#: Every path a client might try: the GET routes, the RPC route and a typo.
_CANDIDATE_ROUTES = ("/", *_MONITOR_ROUTES, "/stats", "/v1", "/nope")


def _chain_databases(count):
    return [skewed_chain_database(3, heads=4, fanout=3, junction_values=2,
                                  seed=seed)
            for seed in range(count)]


@pytest.mark.parametrize("limit, status, entries", [
    (None, 200, 2), ("1", 200, 1), ("5", 200, 2),
    ("abc", 400, None), ("0", 400, None), ("-3", 400, None), ("", 400, None),
])
def test_exposition_routes_are_mounted(server, limit, status, entries):
    client = ServiceClient(server.url, client_id="scraper")
    handle = client.prepare(
        "chain", outputs=[str(a) for a in skewed_chain_endpoints(3)])
    client.execute_many(handle, ["chain", "chain"])

    got, content_type, body = client.get("/metrics")
    assert (got, content_type) == (200, _METRICS_TYPE)
    metrics = body.decode("utf-8")
    assert "engine_queries_total" in metrics
    assert "engine_planner_cache_size" in metrics
    assert "engine_querylog_entries 2" in metrics

    got, content_type, body = client.get("/health")
    assert (got, content_type) == (200, _JSON_TYPE)
    health = json.loads(body)
    assert health["status"] == "ok"
    assert health["queries_recorded"] == 2

    path = "/querylog" if limit is None else f"/querylog?limit={limit}"
    got, content_type, body = client.get(path)
    assert (got, content_type) == (status, _JSON_TYPE)
    querylog = json.loads(body)
    if status == 200:
        assert len(querylog["entries"]) == entries
        assert querylog["recorded"] == 2
        assert querylog["dropped"] == 0
        validate_query_log(querylog)
    else:
        assert "limit" in querylog["error"]

    assert len(client.get_json("/quality")["fingerprints"]) == 1
    index = client.get_json("/")
    assert index["rpc"]["route"] == "/v1"
    stats = client.get_json("/stats")
    assert stats["protocol_version"] == PROTOCOL_VERSION
    client.close()


@pytest.mark.parametrize("route", ["/nope", "/querylog/extra", "/v2"])
def test_unknown_routes_get_a_json_404(server, route):
    with ServiceClient(server.url) as client:
        status, content_type, body = client.get(route)
    assert (status, content_type) == (404, _JSON_TYPE)
    assert route in json.loads(body)["error"]


@pytest.mark.parametrize("monitor", ["monitored", "unmonitored", "detached"])
def test_index_lists_exactly_the_routes_that_answer(monitor):
    session = EngineSession(monitor=monitor != "unmonitored")
    if monitor == "detached":
        session.monitor = None
    with ServiceServer(QueryService(session)) as server, \
            ServiceClient(server.url) as client:
        listed = client.get_json("/")["routes"]
        answering = [route for route in _CANDIDATE_ROUTES
                     if client.get(route)[0] == 200]
    assert sorted(listed) == sorted(answering)
    assert "/stats" in listed
    if monitor == "monitored":
        assert set(_MONITOR_ROUTES) <= set(listed)
    else:
        assert set(_MONITOR_ROUTES).isdisjoint(listed)


def test_scrapes_observe_traffic_that_happens_between_them():
    # An in-process session with no database registered: its own executes
    # land in the monitor the service's routes serve.
    database, = _chain_databases(1)
    session = EngineSession(monitor=True)
    prepared = session.prepare(database, skewed_chain_endpoints(3))
    with ServiceServer(QueryService(session)) as server, \
            ServiceClient(server.url) as client:
        assert client.health()["queries_recorded"] == 0
        prepared.execute(database)
        assert client.health()["queries_recorded"] == 1
        assert client.querylog()["recorded"] == 1


def test_scrapes_run_against_concurrent_execute_many():
    databases = _chain_databases(2)
    session = EngineSession(monitor=True)
    prepared = session.prepare(databases[0], skewed_chain_endpoints(3))
    prepared.execute_many(databases)
    stop = threading.Event()
    failures = []

    def serve():
        try:
            while not stop.is_set():
                prepared.execute_many(databases)
        except Exception as error:  # pragma: no cover - failure path
            failures.append(error)

    worker = threading.Thread(target=serve)
    worker.start()
    try:
        with ServiceServer(QueryService(session)) as server, \
                ServiceClient(server.url) as client:
            for _ in range(5):
                validate_query_log(client.querylog())
                status, _, _ = client.get("/metrics")
                assert status == 200
    finally:
        stop.set()
        worker.join()
    assert failures == []
    assert session.monitor.log.total_recorded >= 2


def test_close_is_idempotent_and_frees_the_port():
    server = ServiceServer(QueryService(EngineSession(monitor=True))).start()
    port = server.port
    with ServiceClient(server.url) as client:
        assert client.get("/health")[0] == 200
    server.close()
    server.close()
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", port), timeout=5).close()
    # The port is free again: a new listener binds it.
    with ServiceServer(QueryService(), port=port) as again:
        assert again.port == port


def test_request_ids_land_in_trace_spans(service):
    # The service wraps every handler in use_span_tags(client=…, request_id=…);
    # running the handler under a recording tracer witnesses the attribution.
    from repro.telemetry.tracing import Tracer, use_tracer

    handle = _prepare(service, client="traced-tenant")
    tracer = Tracer()
    with use_tracer(tracer):
        status, _ = _rpc(service, "execute",
                         {"query": handle, "database": "chain"},
                         client="traced-tenant", request_id="req-42")
    assert status == 200
    roots = [record for record in tracer.records
             if record["parent_id"] is None]
    assert roots, "the execution must have produced a root span"
    tagged = [record for record in roots
              if record["attributes"].get("client") == "traced-tenant"
              and record["attributes"].get("request_id") == "req-42"]
    assert tagged, f"no root span carries the request tags: {roots}"


def test_graceful_drain_over_http(chain_database):
    service = QueryService(EngineSession(monitor=True))
    service.add_database("chain", chain_database)
    server = ServiceServer(service)
    server.start()
    client = ServiceClient(server.url)
    handle = client.prepare("chain")
    client.execute(handle, "chain", include_rows=False)
    server.close()
    # The admission gate is drained: the service refuses new executions.
    assert service.admission.draining
    with pytest.raises((ServiceCallError, OSError)):
        client.execute(handle, "chain")
    client.close()
    server.close()  # idempotent


def test_port_zero_binds_a_real_port(service):
    with ServiceServer(service) as server:
        assert server.port > 0
        assert server.url.startswith("http://127.0.0.1:")
