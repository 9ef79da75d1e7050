"""The service wire protocol: versioned JSON requests, a declared method registry.

Every RPC is one JSON document POSTed to ``/v1``::

    {"version": 1, "method": "execute", "client": "tenant-1",
     "id": "req-42", "params": {"query": "q-1", "database": "orders"}}

and every reply is one JSON document::

    {"version": 1, "id": "req-42", "ok": true,  "result": {…}}
    {"version": 1, "id": "req-42", "ok": false, "error": {"code": …, …}}

The callable surface is *declared*, not discovered: :data:`METHOD_REGISTRY`
lists the five methods (prepare / execute / execute_many / explain / stats),
and a method's entry is the one declaration of each parameter's type and
value rule (:attr:`Param.check`).  :func:`parse_request` rejects anything
outside that contract — unknown methods, unsupported versions,
missing/unknown/mistyped parameters, bad values — before a handler runs, so
a bad value is a 400 before any handle or database lookup; handlers keep
only the rules that need server state or two parameters.  This mirrors the
MAAS websocket-handler idiom of an explicit ``allowed_methods`` allowlist
per handler: the registry is the single source of truth the server
dispatches from, so there is no way to reach an undeclared method.

Errors are a typed hierarchy carrying a stable machine ``code`` and an HTTP
status: protocol violations are 400s, unknown handles/databases 404s,
admission rejections 429 (:class:`OverloadedError`) or 503
(:class:`ShuttingDownError` during drain), and an execution that breaches
its deadline maps :class:`~repro.exceptions.ExecutionTimeoutError` to a 504
``timeout`` response with the phase and budget attached.

Both ends read HTTP/1.1 messages with :func:`read_message`, so they share
one set of limits: a start line, at most 100 headers, lines of at most
64 KiB, a ``Content-Length`` body, no ``Transfer-Encoding`` — and, for the
server's requests only, a body of at most 64 MiB.  Anything else raises
:class:`_FramingError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, BinaryIO, Callable, Dict, List, Mapping, Optional, Tuple

from ..engine.deadline import valid_budget
from ..exceptions import ExecutionTimeoutError, ReproError

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "Param",
    "MethodSpec",
    "METHOD_REGISTRY",
    "WIRE_OPTION_FIELDS",
    "allowed_methods",
    "ServiceError",
    "ProtocolError",
    "UnknownMethodError",
    "UnknownQueryError",
    "UnknownDatabaseError",
    "OverloadedError",
    "ShuttingDownError",
    "ServiceRequest",
    "parse_request",
    "ok_response",
    "error_response",
    "read_message",
]

PROTOCOL_VERSION = 1
SUPPORTED_VERSIONS = (1,)


# --------------------------------------------------------------------------- #
# Errors
# --------------------------------------------------------------------------- #
class ServiceError(ReproError):
    """Base class for service-level failures; carries a wire code + HTTP status."""

    code = "service-error"
    http_status = 500

    def payload(self) -> Dict[str, Any]:
        """Extra key/values for the wire ``error`` object (none by default)."""
        return {}


class ProtocolError(ServiceError):
    """The request violates the protocol contract (malformed, mistyped, …)."""

    code = "bad-request"
    http_status = 400

    def __init__(self, message: str, *, code: Optional[str] = None) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code


class UnknownMethodError(ProtocolError):
    """The requested method is not in the declared registry."""

    code = "unknown-method"

    def __init__(self, method: object) -> None:
        super().__init__(f"unknown method {method!r}; expected one of "
                         f"{list(allowed_methods())}")
        self.method = method


class UnknownQueryError(ServiceError):
    """The query handle does not name a prepared query of this client."""

    code = "unknown-query"
    http_status = 404

    def __init__(self, handle: object) -> None:
        super().__init__(f"no prepared query {handle!r} for this client "
                         "(prepare it again: handles are per-client, and one "
                         "expires once the server drops its query)")
        self.handle = handle


class UnknownDatabaseError(ServiceError):
    """The database name is not registered with the service."""

    code = "unknown-database"
    http_status = 404

    def __init__(self, name: object) -> None:
        super().__init__(f"no database named {name!r} is registered "
                         "with this service")
        self.name = name


class OverloadedError(ServiceError):
    """Admission control rejected the request (429-style backpressure)."""

    code = "overloaded"
    http_status = 429

    def __init__(self, message: str, *, retry_after_seconds: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds

    def payload(self) -> Dict[str, Any]:
        return {"retry_after_seconds": self.retry_after_seconds}


class ShuttingDownError(ServiceError):
    """The service is draining; no new work is admitted."""

    code = "shutting-down"
    http_status = 503

    def __init__(self, message: str = "the service is shutting down; "
                 "no new work is admitted") -> None:
        super().__init__(message)


# --------------------------------------------------------------------------- #
# The method registry
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Param:
    """One declared parameter: name, JSON types, doc and value rule.

    ``check`` gets a value of the right type: an error message, or ``None``.
    """

    name: str
    types: Tuple[type, ...]
    doc: str
    check: Optional[Callable[[Any], Optional[str]]] = None

    def type_names(self) -> str:
        return " or ".join(t.__name__ for t in self.types)


@dataclass(frozen=True)
class MethodSpec:
    """One declared method: its parameters and whether admission gates it."""

    name: str
    doc: str
    required: Tuple[Param, ...] = ()
    optional: Tuple[Param, ...] = ()
    #: Admission-controlled methods execute engine work and count against
    #: the in-flight caps; ``stats`` stays reachable even under overload.
    admitted: bool = True

    def validate(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Check ``params`` against the declaration; return a plain dict."""
        declared = {param.name: param for param in self.required + self.optional}
        unknown = set(params) - set(declared)
        if unknown:
            raise ProtocolError(
                f"unknown parameter(s) {sorted(unknown)} for method "
                f"{self.name!r}; expected a subset of {sorted(declared)}",
                code="unknown-param")
        for param in self.required:
            if param.name not in params:
                raise ProtocolError(
                    f"method {self.name!r} requires parameter {param.name!r} "
                    f"({param.doc})", code="missing-param")
        for name, value in params.items():
            param = declared[name]
            # bool is an int subclass; an int-typed parameter must not
            # silently accept true/false.
            if isinstance(value, bool) and bool not in param.types:
                raise ProtocolError(
                    f"parameter {name!r} of {self.name!r} must be "
                    f"{param.type_names()}, not bool", code="invalid-param")
            if not isinstance(value, param.types):
                raise ProtocolError(
                    f"parameter {name!r} of {self.name!r} must be "
                    f"{param.type_names()}, not {type(value).__name__}",
                    code="invalid-param")
            problem = param.check(value) if param.check else None
            if problem is not None:
                raise ProtocolError(problem, code="invalid-param")
        return dict(params)


_NUMBER = (int, float)

#: The ``ExecutionOptions`` fields a client may set over the wire.  ``root``
#: needs an in-process Edge object; ``decode`` is the service's own choice,
#: not the client's: it owns the result boundary, defers the decode of every
#: query (``"block"``) and serialises the answer straight from the id block;
#: and ``check_reduction`` is an in-process debug audit that adds two
#: semijoin scans per tree edge — so none of the three is reachable remotely.
WIRE_OPTION_FIELDS = frozenset({
    "adaptive", "cluster_row_bound", "force_cyclic", "column_backend",
    "deadline_seconds",
})


def _rule(holds: Callable[[Any], bool],
          message: str) -> Callable[[Any], Optional[str]]:
    """A :attr:`Param.check`: ``message`` when ``holds(value)`` is false."""
    return lambda value: None if holds(value) else message


def _all_strings(values: List[Any]) -> bool:
    return all(isinstance(value, str) for value in values)


def _wire_options(options: Dict[str, Any]) -> Optional[str]:
    unknown = sorted(set(options) - WIRE_OPTION_FIELDS)
    return (f"unknown or non-wire option(s) {unknown}; expected a subset of "
            f"{sorted(WIRE_OPTION_FIELDS)}") if unknown else None


_BUDGET = _rule(valid_budget, "deadline_seconds must be a finite positive "
                "number")

METHOD_REGISTRY: Dict[str, MethodSpec] = {spec.name: spec for spec in (
    MethodSpec(
        name="prepare",
        doc="Compile a query against a registered database's schema; "
            "returns a per-client query handle.",
        required=(Param("database", (str,), "the registered database name"),),
        optional=(
            Param("outputs", (list,), "projection attribute names, in order",
                  _rule(_all_strings, "'outputs' must be a list of attribute "
                        "names (strings)")),
            Param("name", (str,), "the answer relation's name"),
            Param("options", (dict,), "ExecutionOptions field overrides: "
                  + ", ".join(sorted(WIRE_OPTION_FIELDS))
                  + "; any other field is an invalid-param error that "
                  "lists the allowed ones", _wire_options),
        )),
    MethodSpec(
        name="execute",
        doc="Run a prepared query against one registered database.",
        required=(
            Param("query", (str,), "a handle returned by prepare"),
            Param("database", (str,), "the registered database name"),
        ),
        optional=(
            Param("include_rows", (bool,), "return the answer rows "
                  "(default true)"),
            Param("deadline_seconds", _NUMBER, "per-call wall-clock budget "
                  "overriding the prepared options", _BUDGET),
        )),
    MethodSpec(
        name="execute_many",
        doc="Run a prepared query against many registered databases, "
            "overlapped on the service pool.",
        required=(
            Param("query", (str,), "a handle returned by prepare"),
            Param("databases", (list,), "registered database names, in "
                  "batch order",
                  _rule(lambda names: names and _all_strings(names),
                        "'databases' must be a non-empty list of registered "
                        "database names")),
        ),
        optional=(
            Param("include_rows", (bool,), "return per-database rows "
                  "(default false — batches are usually accounting traffic)"),
            Param("max_workers", (int,), "1 runs the batch serially in "
                  "the request thread; any other value runs it on the "
                  "service's batch pool, whose size bounds concurrency",
                  _rule(lambda workers: workers >= 1,
                        "max_workers must be at least 1")),
            Param("deadline_seconds", _NUMBER, "per-run wall-clock budget",
                  _BUDGET),
        )),
    MethodSpec(
        name="explain",
        doc="The prepared plan, rendered; analyze=true executes and adds "
            "estimated-vs-actual.",
        required=(Param("query", (str,), "a handle returned by prepare"),),
        optional=(
            Param("database", (str,), "resolve the per-database plan half"),
            Param("analyze", (bool,), "execute under a recording tracer "
                  "(requires database)"),
        )),
    MethodSpec(
        name="stats",
        doc="Service-level counters: admission, pool, per-client sessions, "
            "session monitor health.",
        admitted=False),
)}


def allowed_methods() -> Tuple[str, ...]:
    """The declared callable surface, in registry order."""
    return tuple(METHOD_REGISTRY)


# --------------------------------------------------------------------------- #
# Requests and responses
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServiceRequest:
    """One validated request: version, method spec, client, id, params."""

    version: int
    method: str
    client: str
    request_id: Optional[str]
    params: Dict[str, Any] = field(default_factory=dict)

    @property
    def spec(self) -> MethodSpec:
        return METHOD_REGISTRY[self.method]


def parse_request(document: Any) -> ServiceRequest:
    """Validate one decoded JSON document against the protocol contract.

    Raises :class:`ProtocolError` (or the sharper :class:`UnknownMethodError`)
    with a stable machine code; the server maps those straight to 400s.
    """
    if not isinstance(document, dict):
        raise ProtocolError(
            f"a request must be a JSON object, not {type(document).__name__}",
            code="malformed-request")
    version = document.get("version", PROTOCOL_VERSION)
    if not isinstance(version, int) or isinstance(version, bool) \
            or version not in SUPPORTED_VERSIONS:
        raise ProtocolError(
            f"unsupported protocol version {version!r}; this server speaks "
            f"{list(SUPPORTED_VERSIONS)}", code="unsupported-version")
    unknown_keys = set(document) - {"version", "method", "client", "id",
                                    "params"}
    if unknown_keys:
        raise ProtocolError(
            f"unknown request field(s) {sorted(unknown_keys)}",
            code="malformed-request")
    method = document.get("method")
    if not isinstance(method, str):
        raise ProtocolError("a request must name a 'method' (string)",
                            code="malformed-request")
    spec = METHOD_REGISTRY.get(method)
    if spec is None:
        raise UnknownMethodError(method)
    client = document.get("client", "anonymous")
    if not isinstance(client, str) or not client:
        raise ProtocolError("'client' must be a non-empty string",
                            code="malformed-request")
    request_id = document.get("id")
    if request_id is not None and not isinstance(request_id, str):
        raise ProtocolError("'id' must be a string when present",
                            code="malformed-request")
    params = document.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be a JSON object",
                            code="malformed-request")
    return ServiceRequest(version=version, method=method, client=client,
                          request_id=request_id,
                          params=spec.validate(params))


def ok_response(request_id: Optional[str], result: Any) -> Dict[str, Any]:
    """The success envelope for one request."""
    return {"version": PROTOCOL_VERSION, "id": request_id, "ok": True,
            "result": result}


def error_response(request_id: Optional[str],
                   error: BaseException) -> Tuple[int, Dict[str, Any]]:
    """Map an exception to ``(http_status, envelope)``.

    :class:`ServiceError` subclasses carry their own code/status;
    :class:`~repro.exceptions.ExecutionTimeoutError` becomes a 504
    ``timeout`` with the breaching phase attached; any other engine error
    (:class:`~repro.exceptions.ReproError`) is a 400 ``engine-error`` —
    the request was well-formed but the engine rejected it; everything
    else is a 500 ``internal-error``.
    """
    detail: Dict[str, Any] = {}
    if isinstance(error, ServiceError):
        status, code = error.http_status, error.code
        detail.update(error.payload())
    elif isinstance(error, ExecutionTimeoutError):
        status, code = 504, "timeout"
        detail.update(phase=error.phase,
                      deadline_seconds=error.deadline_seconds,
                      elapsed_seconds=round(error.elapsed_seconds, 6))
    elif isinstance(error, ReproError):
        status, code = 400, "engine-error"
        detail["error_type"] = type(error).__name__
    else:
        status, code = 500, "internal-error"
        detail["error_type"] = type(error).__name__
    payload = {"version": PROTOCOL_VERSION, "id": request_id, "ok": False,
               "error": {"code": code, "message": str(error), **detail}}
    return status, payload


# --------------------------------------------------------------------------- #
# HTTP framing
# --------------------------------------------------------------------------- #
#: A line (start line or header, CRLF included) past this is refused.
_MAX_LINE_BYTES = 64 * 1024

#: More header lines than this are refused.
_MAX_HEADERS = 100

#: Request bodies past this are refused outright (64 MiB — generous for JSON
#: RPC, small enough that a misbehaving peer cannot balloon the server's
#: memory).  A response the client asked for is read whatever its length.
_MAX_BODY_BYTES = 64 * 1024 * 1024


class _FramingError(ProtocolError):
    """The HTTP framing is broken: answered with an envelope, then closed.

    400 for a malformed or over-long line, too many headers, a
    ``Transfer-Encoding`` or a bad ``Content-Length``; 413 for a body past
    :data:`_MAX_BODY_BYTES`.
    """

    code = "malformed-request"

    def __init__(self, message: str, *, http_status: int = 400) -> None:
        super().__init__(message)
        self.http_status = http_status


def _read_line(stream: BinaryIO) -> str:
    line = stream.readline(_MAX_LINE_BYTES + 1)
    if len(line) > _MAX_LINE_BYTES:
        raise _FramingError(f"a line is longer than {_MAX_LINE_BYTES} bytes")
    return line.decode("latin-1")


def read_message(stream: BinaryIO, *, limit_body: bool = False
                 ) -> Optional[Tuple[List[str], Dict[str, str], bytes]]:
    """One message off ``stream``: its start line's words, headers, body.

    Header names are lower-cased; ``limit_body`` (the server's requests)
    refuses a body past :data:`_MAX_BODY_BYTES`.  ``None`` when the peer
    closed (or sent a blank line) where a start line was due;
    :class:`ConnectionError` when it closed mid-message.
    """
    words = _read_line(stream).split()
    if not words:
        return None
    if len(words) < 2:
        raise _FramingError("malformed start line")
    headers: Dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(stream)
        if not line:
            raise ConnectionError("the peer closed the connection mid-headers")
        if line in ("\r\n", "\n"):
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _FramingError(f"more than {_MAX_HEADERS} headers")
    if "transfer-encoding" in headers:
        raise _FramingError("Transfer-Encoding is not supported; frame the "
                            "body with Content-Length")
    length = headers.get("content-length")
    if length is None:
        return words, headers, b""
    try:
        size = int(length)
    except ValueError:
        raise _FramingError(f"Content-Length {length!r} is not an "
                            "integer") from None
    if size < 0:
        raise _FramingError(f"negative Content-Length {size}")
    if limit_body and size > _MAX_BODY_BYTES:
        raise _FramingError(f"Content-Length {size} exceeds the "
                            f"{_MAX_BODY_BYTES}-byte limit", http_status=413)
    body = stream.read(size)
    if len(body) < size:
        raise ConnectionError("the peer closed the connection mid-body")
    return words, headers, body
