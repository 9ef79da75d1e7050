"""``repro.service`` — the concurrent query service over an ``EngineSession``.

The engine's session layer (PR 4) made repeated traffic cheap for *one*
caller; this package makes it a long-lived multi-tenant service:

* :mod:`~repro.service.pool` — the thread-pool execution layer under
  ``PreparedQuery.execute_many(pool=…)`` and so the service's
  ``execute_many`` batches, propagating ambient context (tracer, deadline,
  span tags) into workers;
* :mod:`~repro.service.protocol` — the versioned JSON request/response
  schema (prepare / execute / execute_many / explain / stats) with a
  declared method registry, whose entries are the one declaration of each
  parameter's type and value rule, mirroring the MAAS handler allowlist
  idiom, plus the HTTP/1.1 message reader both ends share;
* :mod:`~repro.service.admission` — the per-client session registry and
  admission control: per-client and global in-flight caps, a bounded wait
  queue with timeout, explicit 429-style overload responses and graceful
  drain on shutdown;
* :mod:`~repro.service.server` — :class:`QueryService` (the transport-free
  protocol engine: one session + monitor + pool + admission) and
  :class:`ServiceServer`, the blocking HTTP/1.1 front-end (one thread per
  connection, no hop between threads) and the repo's only listener: next
  to the ``POST /v1`` RPC endpoint it serves one table of GET routes —
  the monitor's ``/metrics`` / ``/health`` / ``/querylog`` / ``/quality``
  (when the session has a monitor), ``/stats`` and the ``/`` index.  ``ServiceServer(QueryService(session))`` is how an in-process
  session's monitor is scraped;
* :mod:`~repro.service.client` — the small blocking :class:`ServiceClient`
  used by the tests, the benchmark and the ``python -m repro.service`` demo.

Quick start::

    from repro.service import QueryService, ServiceServer, ServiceClient

    service = QueryService()
    service.add_database("orders", database)
    with ServiceServer(service) as server:
        client = ServiceClient(server.url, client_id="tenant-1")
        handle = client.prepare("orders", outputs=("C0", "C3"))
        answer = client.execute(handle, "orders")
"""

from .admission import AdmissionConfig, AdmissionController, ClientRegistry
from .client import ServiceCallError, ServiceClient
from .pool import ExecutionPool
from .protocol import (
    PROTOCOL_VERSION,
    METHOD_REGISTRY,
    OverloadedError,
    ProtocolError,
    ServiceError,
    ShuttingDownError,
    allowed_methods,
    error_response,
    ok_response,
    parse_request,
)
from .server import QueryService, ServiceServer

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "ClientRegistry",
    "ExecutionPool",
    "PROTOCOL_VERSION",
    "METHOD_REGISTRY",
    "OverloadedError",
    "ProtocolError",
    "ServiceError",
    "ShuttingDownError",
    "ServiceCallError",
    "ServiceClient",
    "QueryService",
    "ServiceServer",
    "allowed_methods",
    "error_response",
    "ok_response",
    "parse_request",
]
