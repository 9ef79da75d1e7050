"""A small blocking HTTP client for the query service.

Thin by design — one socket plus JSON, no dependencies — because its job is
to be the *other end* the tests, the benchmark and the
``python -m repro.service`` demo drive.  One :class:`ServiceClient` holds
one keep-alive connection guarded by a lock, so a client instance may be
shared across threads (calls serialise on the connection); for genuinely
concurrent traffic give each thread its own client, which is what the
benchmark does.  A request — headers and body — leaves in one ``sendall``,
and its response is read with :func:`~repro.service.protocol.read_message`,
the framing code the server reads requests with.

Service-level failures surface as :class:`ServiceCallError` carrying the
protocol error code (``overloaded``, ``timeout``, ``unknown-method``, …)
and the HTTP status, so callers branch on ``error.code`` rather than
string-matching messages.  A response the framing rejects — a status line
that is not ``HTTP/1.x``, no ``Content-Length``, a ``Transfer-Encoding`` —
is a ``transport-error``.  The request body limit guards the server's memory
only: a response is read whatever its ``Content-Length``.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, BinaryIO, Dict, Mapping, Optional, Sequence, Tuple
from urllib.parse import urlparse

from .protocol import _FramingError, read_message

__all__ = ["ServiceCallError", "ServiceClient"]


class ServiceCallError(Exception):
    """A non-ok response from the service (protocol or transport level)."""

    def __init__(self, message: str, *, code: str = "error",
                 http_status: int = 0,
                 details: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.code = code
        self.http_status = http_status
        self.details = details or {}


class ServiceClient:
    """A blocking JSON-RPC client for one service endpoint.

    ``base_url`` is what :attr:`ServiceServer.url` returns
    (``http://host:port``).  Every request carries ``client_id`` (the
    admission/tenancy key) and a fresh request id, which the service stamps
    onto its trace spans.
    """

    def __init__(self, base_url: str, *, client_id: str = "anonymous",
                 timeout_seconds: float = 30.0) -> None:
        parsed = urlparse(base_url)
        if parsed.scheme not in ("", "http") or not parsed.netloc and not parsed.path:
            raise ValueError(f"unsupported service url {base_url!r}")
        netloc = parsed.netloc or parsed.path
        host, _, port = netloc.partition(":")
        self._host = host or "127.0.0.1"
        self._port = int(port) if port else 80
        self.client_id = client_id
        self._timeout = timeout_seconds
        self._lock = threading.Lock()
        self._socket: Optional[socket.socket] = None
        self._stream: Optional[BinaryIO] = None
        self._request_ids = iter(range(1, 1 << 62))

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _request(self, method: str, path: str,
                 body: bytes = b"") -> Tuple[int, str, bytes]:
        """One HTTP exchange; a keep-alive the server dropped is retried once.

        Only a reused connection is retried, and not after a timeout: a
        fresh connection that fails raises, as does the retry.
        """
        message = (f"{method} {path} HTTP/1.1\r\n"
                   f"Host: {self._host}:{self._port}\r\n"
                   "Content-Type: application/json\r\n"
                   f"Content-Length: {len(body)}\r\n\r\n"
                   ).encode("latin-1") + body
        with self._lock:
            while True:
                reused = self._socket is not None
                try:
                    return self._exchange(message)
                except _FramingError as error:
                    self._teardown()
                    raise ServiceCallError(
                        f"malformed response from the service: {error}",
                        code="transport-error") from None
                except OSError as error:
                    self._teardown()
                    if not reused or isinstance(error, TimeoutError):
                        raise

    def _exchange(self, message: bytes) -> Tuple[int, str, bytes]:
        if self._socket is None:
            self._socket = socket.create_connection(
                (self._host, self._port), timeout=self._timeout)
            self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._stream = self._socket.makefile("rb")
        self._socket.sendall(message)
        response = read_message(self._stream)
        if response is None:
            raise ConnectionResetError("the service closed the connection")
        (version, status, *_), headers, payload = response
        if not version.startswith("HTTP/1.") or not status.isdigit():
            raise _FramingError(f"status line {version} {status} is not "
                                "HTTP/1.x")
        if "content-length" not in headers:
            raise _FramingError("the response has no Content-Length")
        if headers.get("connection", "").lower() == "close":
            self._teardown()
        return int(status), headers.get("content-type", ""), payload

    def _teardown(self) -> None:
        if self._socket is not None:
            self._stream.close()
            self._socket.close()
            self._socket = self._stream = None

    def close(self) -> None:
        with self._lock:
            self._teardown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------ #
    # The RPC surface
    # ------------------------------------------------------------------ #
    def call(self, method: str, *, params: Optional[Mapping[str, Any]] = None,
             ) -> Dict[str, Any]:
        """POST one protocol request; return the ``result`` document.

        A ``None``-valued param is left out, so the server applies the
        default its method registry declares.  Raises
        :class:`ServiceCallError` with the protocol error code on any non-ok
        envelope.
        """
        document = {"version": 1,
                    "method": method,
                    "client": self.client_id,
                    "id": f"{self.client_id}-{next(self._request_ids)}",
                    "params": {name: value for name, value
                               in (params or {}).items() if value is not None}}
        body = json.dumps(document).encode("utf-8")
        status, _, payload = self._request("POST", "/v1", body)
        try:
            envelope = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ServiceCallError(
                f"service returned non-JSON payload (HTTP {status})",
                code="transport-error", http_status=status)
        if not isinstance(envelope, dict) or not envelope.get("ok", False):
            error = envelope.get("error", {}) if isinstance(envelope, dict) \
                else {}
            raise ServiceCallError(
                error.get("message", f"service call failed (HTTP {status})"),
                code=error.get("code", "error"), http_status=status,
                details={key: value for key, value in error.items()
                         if key not in ("code", "message")})
        return envelope.get("result", {})

    # One stub per METHOD_REGISTRY entry; the registry declares each param.
    def prepare(self, database: str, *,
                outputs: Optional[Sequence[str]] = None,
                options: Optional[Mapping[str, Any]] = None,
                name: Optional[str] = None) -> str:
        """Prepare a query server-side; return its handle (``q-N``)."""
        return self.call("prepare", params={
            "database": database, "outputs": outputs, "options": options,
            "name": name})["query"]

    def execute(self, query: str, database: str, *,
                include_rows: Optional[bool] = None,
                deadline_seconds: Optional[float] = None) -> Dict[str, Any]:
        return self.call("execute", params={
            "query": query, "database": database, "include_rows": include_rows,
            "deadline_seconds": deadline_seconds})

    def execute_many(self, query: str, databases: Sequence[str], *,
                     include_rows: Optional[bool] = None,
                     max_workers: Optional[int] = None,
                     deadline_seconds: Optional[float] = None
                     ) -> Dict[str, Any]:
        return self.call("execute_many", params={
            "query": query, "databases": databases,
            "include_rows": include_rows, "max_workers": max_workers,
            "deadline_seconds": deadline_seconds})

    def explain(self, query: str, *, database: Optional[str] = None,
                analyze: Optional[bool] = None) -> str:
        return self.call("explain", params={
            "query": query, "database": database,
            "analyze": analyze})["explain"]

    def stats(self) -> Dict[str, Any]:
        return self.call("stats")

    # ------------------------------------------------------------------ #
    # Exposition routes
    # ------------------------------------------------------------------ #
    def get(self, path: str) -> Tuple[int, str, bytes]:
        """Raw GET against an exposition route (status, content type, body)."""
        return self._request("GET", path)

    def get_json(self, path: str) -> Any:
        status, _, payload = self._request("GET", path)
        if status != 200:
            raise ServiceCallError(f"GET {path} returned HTTP {status}",
                                   code="transport-error", http_status=status)
        return json.loads(payload.decode("utf-8"))

    def metrics_text(self) -> str:
        """The Prometheus text exposition from ``/metrics``."""
        status, _, payload = self._request("GET", "/metrics")
        if status != 200:
            raise ServiceCallError(f"GET /metrics returned HTTP {status}",
                                   code="transport-error", http_status=status)
        return payload.decode("utf-8")

    def health(self) -> Dict[str, Any]:
        return self.get_json("/health")

    def querylog(self, *, limit: Optional[int] = None) -> Dict[str, Any]:
        path = "/querylog" if limit is None else f"/querylog?limit={limit}"
        return self.get_json(path)
