"""The query service: the protocol engine plus its HTTP front-end.

Two layers, deliberately separable:

* :class:`QueryService` — transport-free.  Owns one
  :class:`~repro.engine.session.EngineSession` (with a
  :class:`~repro.telemetry.monitor.SessionMonitor` attached), the named
  server-side databases, the per-client registry, the admission gate and
  the batch execution pool.  ``handle(document)`` takes one decoded JSON
  request and returns ``(http_status, response_document)`` — tests drive it
  directly, no sockets involved.
* :class:`ServiceServer` — the blocking HTTP/1.1 front-end and the
  package's only listener.  Next to the ``POST /v1`` RPC endpoint it serves
  the GET routes of one table (:data:`_GET_ROUTES`): the session monitor's
  ``/metrics`` / ``/health`` / ``/querylog`` / ``/quality`` — mounted only
  when the session has a monitor — plus ``/stats`` and the ``/`` index,
  which lists exactly the routes this service mounts.  To scrape an
  in-process session's monitor, serve ``ServiceServer(QueryService(session))``:
  no database need be registered, and executes made on ``session`` directly
  land in the same monitor.

Concurrency shape: a connection is a thread.  One accept thread hands each
connection a thread that reads a request
(:func:`~repro.service.protocol.read_message`), calls
:meth:`QueryService.handle` and writes the response in one ``sendall`` — no
hop between threads.  Admission waits park in that thread, so at most
``max_in_flight + max_queued + 4`` connections are served at once.  At the
cap a new connection evicts the longest-idle one (shuts its reads down; the
client retries a dropped keep-alive), and only when every slot is handling a
request does it get the gate's ``overloaded`` envelope (429).  An idle
keep-alive waits untimed; a started request must arrive within
:data:`_READ_TIMEOUT_SECONDS`.  The *batch pool*
runs ``execute_many`` fan-out, so a batch can never deadlock waiting for
threads its own request occupies.  Each request runs under
:func:`~repro.telemetry.tracing.use_span_tags`, so every trace span an
execution produces carries the client and request id.

Result boundary: the service, not the client, chooses how answers leave the
engine.  Every query is prepared with the decode deferred
(``decode="block"``), and ``execute`` / ``execute_many`` build the
``relation`` documents straight from the result block's id columns
(:func:`_relation_payload`) inside the request's deadline scope — no ``Row``
is built for the wire, and ``include_rows=false`` never decodes.  A memo
miss gathers, sorts and JSON-encodes the document once; a warm repeat
reuses both the rows and the text, and :func:`_json_bytes` writes the
response by encoding the small envelope around the answer and splicing the
memoised text in — byte-identical to ``json.dumps`` of the envelope.

Broken HTTP framing — a malformed or over-long line, too many headers, a
bad or oversized ``Content-Length`` — is answered with a ``malformed-request``
envelope (400, or 413 for an oversized body) and the connection is closed.

Graceful drain (:meth:`ServiceServer.close`): stop accepting connections →
flip the admission gate (new work gets 503 ``shutting-down``) → wait for
in-flight requests to retire → shut the connections' reads down (an idle
keep-alive closes, a busy one answers first) → join their threads.
"""

from __future__ import annotations

import json
import socket
import threading
from time import monotonic, perf_counter
from typing import (Any, BinaryIO, Callable, Dict, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)
from urllib.parse import parse_qs, urlparse

from ..engine.columnar.block import WirePayload
from ..engine.deadline import check_deadline, deadline_scope
from ..engine.planner import fingerprint_digest
from ..engine.session import EngineSession
from ..relational.database import Database
from ..telemetry.tracing import current_tracer, use_span_tags
from .admission import (AdmissionConfig, AdmissionController, ClientRegistry,
                        ClientSession)
from .pool import ExecutionPool
from .protocol import (
    PROTOCOL_VERSION,
    OverloadedError,
    ProtocolError,
    UnknownDatabaseError,
    WIRE_OPTION_FIELDS,
    _FramingError,
    allowed_methods,
    error_response,
    ok_response,
    parse_request,
    read_message,
)

__all__ = ["QueryService", "ServiceServer"]

#: The content type Prometheus scrapers expect for the text format.
_METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: How long a started request's head and body may take to arrive.
_READ_TIMEOUT_SECONDS = 10.0

#: How long a connection closed on an error envelope discards the peer's bytes.
_LINGER_SECONDS = 1.0

#: The reason phrase of every status the service answers with.
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Content Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable", 504: "Gateway Timeout"}


def _statistics_payload(statistics: object) -> Dict[str, Any]:
    """The JSON view of one run's engine statistics (duck-typed, tolerant).

    A served execute ran no semijoin, so it reports 0 steps and 0 removed
    rows where its statistics carry the stored run's.
    """
    served = getattr(statistics, "served", False)
    payload: Dict[str, Any] = {
        "plan_name": getattr(statistics, "plan_name", None),
        "output_size": getattr(statistics, "output_size", None),
        "max_intermediate": getattr(statistics, "max_intermediate", None),
        "total_intermediate": getattr(statistics, "total_intermediate", None),
        "semijoin_steps": 0 if served
        else getattr(statistics, "semijoin_steps", None),
        "rows_removed_by_reduction": 0 if served
        else getattr(statistics, "rows_removed_by_reduction", None),
        "plan_cache_hit": getattr(statistics, "plan_cache_hit", None),
    }
    phases = getattr(statistics, "phase_times", ()) or ()
    if phases:
        payload["phase_seconds"] = {phase: seconds for phase, seconds in phases}
    return payload


#: The keys of a ``relation`` document, in wire order.
_DOCUMENT_KEYS = ("name", "columns", "rows", "row_count")


class _RelationDocument(dict):
    """A ``relation`` document that carries its memoised JSON text.

    A plain dict to every reader — ``json.dumps`` of it, or of an envelope
    holding it, writes exactly what it always did.  :func:`_json_bytes`
    writes :meth:`encoded` in its place instead of encoding the rows again,
    so a warm answer's rows are encoded once, on the memo miss.
    """

    __slots__ = ("_payload",)

    def __init__(self, payload: WirePayload) -> None:
        super().__init__(name=payload.name, columns=list(payload.columns),
                         rows=payload.rows, row_count=len(payload.rows))
        self._payload = payload

    def encoded(self) -> Optional[str]:
        """The memoised text, or ``None`` once an edit made it stale."""
        payload = self._payload
        row_count = self.get("row_count")
        if (tuple(self) == _DOCUMENT_KEYS and self["name"] is payload.name
                and self["rows"] is payload.rows
                and type(row_count) is int and row_count == len(payload.rows)
                and type(self["columns"]) is list
                and tuple(self["columns"]) == payload.columns):
            return payload.text
        return None


def _relation_payload(result: Any) -> _RelationDocument:
    """One result's answer as JSON: ordered columns, deterministically sorted rows.

    Read straight off the result's id block: :meth:`ColumnBlock.wire_payload
    <repro.engine.columnar.block.ColumnBlock.wire_payload>` gathers, zips
    and sorts the selected rows and encodes the document once — no ``Row``,
    no ``frozenset`` — and memoises both on the result storage.  A block has
    no row order, so the sort (by each row's ``repr``) is what makes two
    equal answers serialise byte-identically — the property suite compares
    concurrent and serial responses literally.  Each call returns a fresh
    dict over the shared rows, so a caller's edits never reach the memo.
    """
    return _RelationDocument(result.block.wire_payload(result.result_name))


def _relation_payloads(results: Sequence[Any],
                       statistics: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The ``relation`` documents of ``results``, timed into ``statistics``.

    Called inside the request's deadline scope: under deferred decode a
    memo miss is where rows are first built and sorted, so a spent budget
    stops here (phase ``payload``) before any row list exists.  The seconds
    join the statistics document's ``phase_seconds`` as ``payload``, and the
    step is a ``payload`` span, carrying ``rows`` and ``memo_hit`` (every
    answer's rows were memoised), on the ambient tracer.
    """
    check_deadline("payload")
    span = current_tracer().span("payload")
    started = perf_counter()
    with span:
        memo_hit = span.is_recording and all(
            result.block.peek_wire_rows(result.result_name) is not None
            for result in results)
        documents = [_relation_payload(result) for result in results]
        if span.is_recording:
            span.set("rows", sum(document["row_count"]
                                 for document in documents))
            span.set("memo_hit", memo_hit)
    statistics.setdefault("phase_seconds", {})["payload"] = \
        perf_counter() - started
    return documents


class QueryService:
    """The transport-free protocol engine: session + tenants + admission.

    Dispatch is registry-driven: ``handle`` validates against
    :data:`~repro.service.protocol.METHOD_REGISTRY` (every parameter rule)
    and hands the params and the client's session to ``_method_<name>`` —
    only declared methods have handlers, and only admission-gated ones pass
    through the gate.
    """

    def __init__(self, session: Optional[EngineSession] = None, *,
                 databases: Optional[Mapping[str, Database]] = None,
                 admission: Optional[AdmissionConfig] = None,
                 pool: Optional[ExecutionPool] = None) -> None:
        self.session = session if session is not None \
            else EngineSession(monitor=True)
        self.admission = AdmissionController(admission)
        # The batch pool fans execute_many out and never runs a request
        # itself (a request waiting on its own batch would deadlock a
        # saturated shared pool).
        self.pool = pool if pool is not None else ExecutionPool(
            max_workers=self.admission.config.max_in_flight)
        self.clients = ClientRegistry()
        self._databases: Dict[str, Database] = {}
        self._databases_lock = threading.Lock()
        if databases:
            for name, database in databases.items():
                self.add_database(name, database)

    # ------------------------------------------------------------------ #
    # Databases
    # ------------------------------------------------------------------ #
    def add_database(self, name: str, database: Database) -> "QueryService":
        """Register (or replace) a named server-side database; chainable."""
        with self._databases_lock:
            self._databases[name] = database
        return self

    def database(self, name: object) -> Database:
        with self._databases_lock:
            database = self._databases.get(name)
        if database is None:
            raise UnknownDatabaseError(name)
        return database

    def database_names(self) -> Tuple[str, ...]:
        with self._databases_lock:
            return tuple(sorted(self._databases))

    # ------------------------------------------------------------------ #
    # The entry point
    # ------------------------------------------------------------------ #
    def handle(self, document: Any) -> Tuple[int, Dict[str, Any]]:
        """One request in, ``(http_status, response_document)`` out.

        Never raises: every failure becomes the matching protocol error
        envelope.  Runs synchronously in the calling thread — over HTTP,
        the connection's own thread.
        """
        request_id = document.get("id") if isinstance(document, dict) else None
        if request_id is not None and not isinstance(request_id, str):
            request_id = None
        try:
            request = parse_request(document)
        except Exception as error:  # noqa: BLE001 - mapped to an envelope
            return error_response(request_id, error)
        client = self.clients.session(request.client)
        handler = getattr(self, f"_method_{request.method}")
        try:
            with use_span_tags(client=request.client,
                               request_id=request.request_id):
                if request.spec.admitted:
                    with self.admission.admit(request.client):
                        result = handler(request.params, client)
                else:
                    result = handler(request.params, client)
        except Exception as error:  # noqa: BLE001 - mapped to an envelope
            client.touch(error=True)
            return error_response(request.request_id, error)
        client.touch()
        return 200, ok_response(request.request_id, result)

    # ------------------------------------------------------------------ #
    # Method handlers (one per METHOD_REGISTRY entry)
    # ------------------------------------------------------------------ #
    def _method_prepare(self, params: Dict[str, Any],
                        client: ClientSession) -> Dict[str, Any]:
        database = self.database(params["database"])
        try:
            # The service owns the result boundary: an answer is serialised
            # straight from its id block, so its decode is deferred.
            options = self.session.options.merged(**params.get("options", {}),
                                                  decode="block")
        except (TypeError, ValueError) as error:
            raise ProtocolError(f"invalid options: {error}",
                                code="invalid-param")
        prepared = self.session.prepare(database, params.get("outputs"),
                                        options=options, name=params.get("name"))
        handle = client.register(prepared)
        return {"query": handle,
                "kind": prepared.kind,
                "name": prepared.name,
                "fingerprint": fingerprint_digest(prepared.fingerprint),
                "options": {field: getattr(prepared.options, field)
                            for field in sorted(WIRE_OPTION_FIELDS)}}

    def _method_execute(self, params: Dict[str, Any],
                        client: ClientSession) -> Dict[str, Any]:
        prepared = client.prepared(params["query"])
        database = self.database(params["database"])
        with deadline_scope(params.get("deadline_seconds")):
            result = prepared.execute(database)
            payload: Dict[str, Any] = {
                "database": params["database"],
                "row_count": result.statistics.output_size,
                "statistics": _statistics_payload(result.statistics),
            }
            if params.get("include_rows", True):
                payload["relation"] = _relation_payloads(
                    (result,), payload["statistics"])[0]
        return payload

    def _method_execute_many(self, params: Dict[str, Any],
                             client: ClientSession) -> Dict[str, Any]:
        prepared = client.prepared(params["query"])
        names = params["databases"]
        databases = [self.database(name) for name in names]
        # 1 runs the batch serially in this thread; anything else on the pool.
        pool = None if params.get("max_workers") == 1 else self.pool
        with deadline_scope(params.get("deadline_seconds")):
            batch = prepared.execute_many(databases, labels=tuple(names),
                                          pool=pool)
            payload: Dict[str, Any] = {
                "databases": list(names),
                "row_counts": [result.statistics.output_size
                               for result in batch.results],
                "statistics": _statistics_payload(batch.statistics),
            }
            if params.get("include_rows", False):
                payload["relations"] = _relation_payloads(
                    batch.results, payload["statistics"])
        return payload

    def _method_explain(self, params: Dict[str, Any],
                        client: ClientSession) -> Dict[str, Any]:
        prepared = client.prepared(params["query"])
        name = params.get("database")
        database = None if name is None else self.database(name)
        analyze = params.get("analyze", False)
        if analyze and database is None:
            raise ProtocolError("explain with analyze=true executes the "
                                "query, so it needs a database",
                                code="missing-param")
        return {"kind": prepared.kind,
                "explain": prepared.explain(database, analyze=analyze)}

    def _method_stats(self, params: Dict[str, Any],
                      client: ClientSession) -> Dict[str, Any]:
        return self.stats_payload()

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def monitor(self):
        """The session's monitor (the exposition routes' payload source)."""
        return self.session.monitor

    def stats_payload(self) -> Dict[str, Any]:
        """The service-level counters the ``stats`` method and ``/stats`` serve."""
        payload: Dict[str, Any] = {
            "protocol_version": PROTOCOL_VERSION,
            "methods": list(allowed_methods()),
            "databases": list(self.database_names()),
            "admission": self.admission.snapshot(),
            "pool": self.pool.snapshot(),
            "clients": self.clients.snapshot(),
            "session": self.session.describe(),
        }
        monitor = self.monitor
        if monitor is not None:
            payload["health"] = monitor.health_payload()
        return payload

    def begin_drain(self) -> None:
        """Reject new admission-gated work from now on."""
        self.admission.begin_drain()

    def drain(self, timeout_seconds: float = 10.0) -> bool:
        """Wait for in-flight work to retire (call :meth:`begin_drain` first)."""
        return self.admission.drain(timeout_seconds)

    def shutdown(self, timeout_seconds: float = 10.0) -> bool:
        """Drain, then stop the batch pool; ``True`` when fully drained."""
        self.begin_drain()
        drained = self.drain(timeout_seconds)
        self.pool.shutdown(wait=True)
        return drained


# --------------------------------------------------------------------------- #
# The HTTP front-end
# --------------------------------------------------------------------------- #
class ServiceServer:
    """A blocking, thread-per-connection HTTP server over one :class:`QueryService`.

    ``port=0`` binds a free port; read :attr:`url` back after :meth:`start`.
    Use as a context manager, or pair :meth:`start` with :meth:`close`.
    """

    def __init__(self, service: QueryService, *, host: str = "127.0.0.1",
                 port: int = 0, drain_timeout_seconds: float = 10.0) -> None:
        self._service = service
        self._bound: Tuple[str, int] = (host, port)
        self._drain_timeout = drain_timeout_seconds
        # Admitted-or-queued requests park in their connections' threads, so
        # the cap covers the whole admission window plus the GET routes.
        config = service.admission.config
        self._capacity = config.max_in_flight + config.max_queued + 4
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._lock = threading.Lock()  # guards _connections and _idle
        self._connections: Dict[socket.socket, threading.Thread] = {}
        # The connections not handling a request, longest-idle first.
        self._idle: Dict[socket.socket, bool] = {}
        self._closing = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ServiceServer":
        """Bind and start the accept thread; idempotent."""
        if self._listener is not None:
            return self
        self._listener = socket.create_server(self._bound)
        host, port = self._listener.getsockname()[:2]
        self._bound = (str(host), int(port))
        self._acceptor = threading.Thread(
            target=self._accept, args=(self._listener,),
            name="repro-service-accept", daemon=True)
        self._acceptor.start()
        return self

    def close(self) -> None:
        """Graceful drain and shutdown; idempotent.

        Stops accepting, flips the admission gate (new work → 503), waits
        up to the drain timeout for in-flight requests, then shuts every
        connection's reads down — an idle keep-alive wakes and closes, a
        busy connection answers first — and joins the connection threads.
        """
        listener, self._listener = self._listener, None
        if listener is None:
            return
        self._closing = True
        _shutdown(listener, socket.SHUT_RDWR)  # wakes the blocked accept()
        listener.close()
        self._acceptor.join()
        # Reject new executions, let admitted ones retire.
        self._service.begin_drain()
        self._service.drain(self._drain_timeout)
        with self._lock:
            connections = dict(self._connections)
        for sock in connections:
            _shutdown(sock, socket.SHUT_RD)
        deadline = monotonic() + self._drain_timeout
        for worker in connections.values():
            worker.join(max(deadline - monotonic(), 0.0))
        self._service.pool.shutdown(wait=True)

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def service(self) -> QueryService:
        return self._service

    @property
    def port(self) -> int:
        return self._bound[1]

    @property
    def url(self) -> str:
        host, port = self._bound
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    def _accept(self, listener: socket.socket) -> None:
        """The accept thread: a thread per connection, up to the cap."""
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:
                if self._closing:
                    return
                continue  # a connection reset before it was accepted
            if not self._admit(sock):
                retry = self._service.admission.config.queue_timeout_seconds
                self._send_last(sock, OverloadedError(
                    f"the server is handling {self._capacity} requests, its "
                    "cap", retry_after_seconds=retry))
                sock.close()

    def _admit(self, sock: socket.socket) -> bool:
        """Start ``sock``'s thread; at the cap, evict idle connections first.

        The longest-idle connection — waiting for, or still reading, a
        request — has its reads shut down and its thread joined (a client
        retries a dropped keep-alive).  ``False`` only when every slot is
        handling a request.
        """
        while True:
            with self._lock:
                if len(self._connections) < self._capacity:
                    worker = self._connections[sock] = threading.Thread(
                        target=self._serve, args=(sock,),
                        name="repro-service-connection", daemon=True)
                    self._idle[sock] = True
                    break
                if not self._idle:
                    return False
                idle = next(iter(self._idle))
                del self._idle[idle]
                evicted = self._connections[idle]
            _shutdown(idle, socket.SHUT_RD)
            evicted.join()
        worker.start()
        return True

    def _serve(self, sock: socket.socket) -> None:
        """One connection's thread: read, handle, answer, until it closes."""
        stream = sock.makefile("rb")
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._converse(sock, stream)
        except _FramingError as error:
            self._send_last(sock, error)
        except OSError:  # the peer went away, a read timed out, or shut down
            pass
        finally:
            stream.close()
            sock.close()
            with self._lock:
                del self._connections[sock]
                self._idle.pop(sock, None)

    def _converse(self, sock: socket.socket, stream: BinaryIO) -> None:
        while True:
            if not stream.peek(1):  # an idle keep-alive waits here, untimed
                return
            sock.settimeout(_READ_TIMEOUT_SECONDS)
            message = read_message(stream, limit_body=True)
            sock.settimeout(None)
            with self._lock:
                if not self._idle.pop(sock, False):
                    return  # evicted for a new connection while reading
            if message is None:
                return
            (method, target, *_), headers, body = message
            status, content_type, payload = self._dispatch(
                method.upper(), target, body)
            keep_alive = (headers.get("connection", "").lower() != "close"
                          and not self._closing)
            sock.sendall(self._render(status, content_type, payload,
                                      keep_alive))
            if not keep_alive:
                return
            with self._lock:
                self._idle[sock] = True

    def _send_last(self, sock: socket.socket, error: Exception) -> None:
        """Answer ``error``'s envelope with ``Connection: close``, then linger.

        After the response the socket is half-closed and whatever the peer
        still sends is discarded for up to :data:`_LINGER_SECONDS`: closing
        with unread bytes would reset the connection and could lose the
        response.
        """
        status, envelope = error_response(None, error)
        try:
            sock.sendall(self._render(status, _JSON_CONTENT_TYPE,
                                      _json_bytes(envelope), False))
            sock.shutdown(socket.SHUT_WR)
            deadline = monotonic() + _LINGER_SECONDS
            while True:
                sock.settimeout(max(deadline - monotonic(), 0.0))
                if not sock.recv(65536):
                    return
        except OSError:  # timed out, nothing left to read, or the peer left
            pass

    @staticmethod
    def _render(status: int, content_type: str, payload: bytes,
                keep_alive: bool) -> bytes:
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                "Server: repro-service/1.0\r\n\r\n")
        return head.encode("latin-1") + payload

    def _dispatch(self, method: str, target: str,
                  body: bytes) -> Tuple[int, str, bytes]:
        """Route one request: the ``POST /v1`` RPC first, then the GET table."""
        parsed = urlparse(target)
        route = parsed.path.rstrip("/") or "/"
        try:
            if route == "/v1":
                if method != "POST":
                    return (405, _JSON_CONTENT_TYPE, _json_bytes(
                        {"error": "POST JSON requests to /v1"}))
                try:
                    document = json.loads(body.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as error:
                    status, envelope = error_response(None, ProtocolError(
                        f"request body is not valid JSON: {error}",
                        code="malformed-request"))
                    return status, _JSON_CONTENT_TYPE, _json_bytes(envelope)
                status, envelope = self._service.handle(document)
                return status, _JSON_CONTENT_TYPE, _json_bytes(envelope)
            if method != "GET":
                return (405, _JSON_CONTENT_TYPE,
                        _json_bytes({"error": f"{route} is GET-only"}))
            entry = _GET_ROUTES.get(route)
            if entry is None or not _mounts(self._service, entry):
                return (404, _JSON_CONTENT_TYPE,
                        _json_bytes({"error": f"unknown route {route!r}"}))
            try:
                payload = entry.payload(self._service, parsed.query)
            except _BadQueryError as error:
                return (400, _JSON_CONTENT_TYPE,
                        _json_bytes({"error": str(error)}))
            if entry.content_type == _JSON_CONTENT_TYPE:
                return 200, _JSON_CONTENT_TYPE, _json_bytes(payload)
            return 200, entry.content_type, payload.encode("utf-8")
        except Exception as error:  # noqa: BLE001 - a request must not kill the connection
            return (500, _JSON_CONTENT_TYPE, _json_bytes(
                {"error": f"{type(error).__name__}: {error}"}))


def _shutdown(sock: socket.socket, how: int) -> None:
    """``sock.shutdown(how)``, ignoring a socket that is already gone."""
    try:
        sock.shutdown(how)
    except OSError:
        pass


# --------------------------------------------------------------------------- #
# The GET routes, declared once
# --------------------------------------------------------------------------- #
def _json_bytes(document: Any) -> bytes:
    """``json.dumps(document, default=str)`` as UTF-8, warm answers spliced in.

    When the envelope's last key is ``result`` and the result's last key is
    ``relation`` (or ``relations``) holding documents that still carry their
    memoised text, everything but that value is encoded and the text is
    appended — the same bytes as the plain encode, without touching a row.
    Any other shape takes the plain encode.
    """
    tail = _memoised_tail(document)
    if tail is None:
        return json.dumps(document, default=str).encode("utf-8")
    key, text = tail
    result = document["result"]
    head = json.dumps({**document, "result": {
        name: value for name, value in result.items() if name != key}},
        default=str)
    separator = ", " if len(result) > 1 else ""
    # ``head`` ends in the result's and the envelope's closing braces.
    return f"{head[:-2]}{separator}{json.dumps(key)}: {text}}}}}".encode("utf-8")


def _memoised_tail(document: Any) -> Optional[Tuple[str, str]]:
    """``(key, JSON text)`` of an envelope's spliceable last value, else ``None``."""
    if (type(document) is not dict or not document
            or next(reversed(document)) != "result"):
        return None
    result = document["result"]
    if type(result) is not dict or not result:
        return None
    key = next(reversed(result))
    value = result[key]
    if key == "relation":
        documents = [value]
    elif key == "relations" and type(value) is list:
        documents = value
    else:
        return None
    texts = [item.encoded() if isinstance(item, _RelationDocument) else None
             for item in documents]
    if None in texts:
        return None
    return key, texts[0] if key == "relation" else f"[{', '.join(texts)}]"


class _BadQueryError(ValueError):
    """A GET route's query string is malformed (answered with a 400)."""


def _limit_of(query_string: str) -> Optional[int]:
    """``?limit=N``: ``None`` when absent, else a positive integer or a 400."""
    values = parse_qs(query_string, keep_blank_values=True).get("limit")
    if not values:
        return None
    try:
        limit = int(values[-1])
    except ValueError:
        limit = 0
    if limit < 1:
        raise _BadQueryError(
            f"limit must be a positive integer, got {values[-1]!r}")
    return limit


class _Route(NamedTuple):
    """One GET route: its payload and whether it needs the session's monitor."""

    payload: Callable[[QueryService, str], Any]
    monitored: bool = False
    content_type: str = _JSON_CONTENT_TYPE


def _mounts(service: QueryService, entry: _Route) -> bool:
    return not entry.monitored or service.monitor is not None


def _metrics_text(service: QueryService, query_string: str) -> str:
    """The Prometheus text, with the monitor's polled values published first."""
    monitor = service.monitor
    monitor.collect()
    registry = monitor.registry
    return registry.render_prometheus() if registry is not None else ""


def _index(service: QueryService, query_string: str) -> Dict[str, Any]:
    """The ``/`` discovery document: the RPC endpoint and the mounted routes."""
    return {"service": "repro-query-service",
            "protocol_version": PROTOCOL_VERSION,
            "rpc": {"route": "/v1", "methods": list(allowed_methods())},
            "routes": [route for route, entry in _GET_ROUTES.items()
                       if _mounts(service, entry)]}


#: Every GET route, in ``/`` listing order.  A monitored route is mounted
#: only while the service's session has a monitor; everything else is a 404.
_GET_ROUTES: Dict[str, _Route] = {
    "/metrics": _Route(_metrics_text, monitored=True,
                       content_type=_METRICS_CONTENT_TYPE),
    "/health": _Route(lambda service, query: service.monitor.health_payload(),
                      monitored=True),
    "/querylog": _Route(lambda service, query: service.monitor.querylog_payload(
                            limit=_limit_of(query)),
                        monitored=True),
    "/quality": _Route(lambda service, query: service.monitor.quality_payload(),
                       monitored=True),
    "/stats": _Route(lambda service, query: service.stats_payload()),
    "/": _Route(_index),
}
