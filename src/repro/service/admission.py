"""Admission control and the per-client session registry.

The service's backpressure story in one place:

* :class:`AdmissionController` — a condition-variable gate in front of the
  execution pool.  At most ``max_in_flight`` requests execute at once
  globally and ``max_in_flight_per_client`` per client; up to ``max_queued``
  more may *wait* for a slot, each for at most ``queue_timeout_seconds``.
  Anything beyond that is rejected immediately with
  :class:`~repro.service.protocol.OverloadedError` (a 429 on the wire) —
  bounded queues turn overload into fast, explicit feedback instead of
  unbounded latency.  :meth:`~AdmissionController.begin_drain` flips the
  gate for graceful shutdown: waiters and new arrivals get
  :class:`~repro.service.protocol.ShuttingDownError` (503) while already
  admitted work runs to completion, and :meth:`~AdmissionController.drain`
  blocks until the last in-flight request retires.

* :class:`ClientRegistry` / :class:`ClientSession` — the per-client state:
  prepared-query handles (namespaced per client, so tenants cannot execute
  each other's handles), admission counters and first/last-seen bookkeeping,
  all surfaced through ``stats`` and ``/health``-style snapshots.  Both
  tables are bounded: a handle holds its query weakly, and the registry
  keeps the :data:`CLIENT_CAPACITY` most recently seen clients.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

from contextlib import contextmanager

from ..engine.cache import LRUCache
from .protocol import OverloadedError, ShuttingDownError, UnknownQueryError

__all__ = ["AdmissionConfig", "AdmissionController", "ClientSession",
           "ClientRegistry", "CLIENT_CAPACITY"]

#: How many clients' sessions the service keeps; the least recently seen
#: client is dropped first, and its handles with it.
CLIENT_CAPACITY = 1024


@dataclass(frozen=True)
class AdmissionConfig:
    """The admission knobs (see the README's deployment notes).

    * ``max_in_flight`` — global concurrent-execution cap; the server
      serves ``max_in_flight + max_queued + 4`` connections, one thread
      each, so queued waiters can never starve running work of threads;
    * ``max_in_flight_per_client`` — one tenant's share of the window;
    * ``max_queued`` — how many admitted-but-waiting requests may park;
    * ``queue_timeout_seconds`` — how long a parked request may wait before
      it is bounced with an overload response.
    """

    max_in_flight: int = 8
    max_in_flight_per_client: int = 4
    max_queued: int = 16
    queue_timeout_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        if self.max_in_flight_per_client < 1:
            raise ValueError("max_in_flight_per_client must be at least 1")
        if self.max_queued < 0:
            raise ValueError("max_queued must be non-negative")
        if self.queue_timeout_seconds <= 0:
            raise ValueError("queue_timeout_seconds must be positive")


class AdmissionController:
    """The bounded-queue admission gate in front of the execution pool."""

    def __init__(self, config: Optional[AdmissionConfig] = None) -> None:
        self.config = config if config is not None else AdmissionConfig()
        self._cond = threading.Condition()
        self._in_flight: Dict[str, int] = {}
        self._total_in_flight = 0
        self._queued = 0
        self._draining = False
        # Lifetime accounting, all under the condition's lock.
        self._admitted_total = 0
        self._rejected_queue_full = 0
        self._rejected_timeout = 0
        self._rejected_draining = 0

    # ------------------------------------------------------------------ #
    # The gate
    # ------------------------------------------------------------------ #
    @contextmanager
    def admit(self, client: str) -> Iterator[None]:
        """Hold one execution slot for the ``with`` block."""
        self.acquire(client)
        try:
            yield
        finally:
            self.release(client)

    def acquire(self, client: str) -> None:
        """Take a slot for ``client``, waiting up to the queue timeout.

        Raises :class:`OverloadedError` when the wait queue is full or the
        timeout passes without a slot, :class:`ShuttingDownError` once the
        controller is draining.
        """
        config = self.config
        deadline = time.monotonic() + config.queue_timeout_seconds
        with self._cond:
            if self._draining:
                self._rejected_draining += 1
                raise ShuttingDownError()
            if self._has_capacity(client):
                self._grant(client)
                return
            if self._queued >= config.max_queued:
                self._rejected_queue_full += 1
                raise OverloadedError(
                    f"admission queue is full ({config.max_queued} waiting; "
                    f"{self._total_in_flight} in flight)",
                    retry_after_seconds=config.queue_timeout_seconds)
            self._queued += 1
            try:
                while True:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._rejected_timeout += 1
                        raise OverloadedError(
                            "timed out waiting "
                            f"{config.queue_timeout_seconds:.3f}s for an "
                            "execution slot",
                            retry_after_seconds=config.queue_timeout_seconds)
                    self._cond.wait(remaining)
                    if self._draining:
                        self._rejected_draining += 1
                        raise ShuttingDownError()
                    if self._has_capacity(client):
                        self._grant(client)
                        return
            finally:
                self._queued -= 1

    def release(self, client: str) -> None:
        """Return a slot taken by :meth:`acquire`; wakes waiters."""
        with self._cond:
            count = self._in_flight.get(client, 0)
            if count <= 1:
                self._in_flight.pop(client, None)
            else:
                self._in_flight[client] = count - 1
            self._total_in_flight -= 1
            self._cond.notify_all()

    def _has_capacity(self, client: str) -> bool:
        return (self._total_in_flight < self.config.max_in_flight
                and self._in_flight.get(client, 0)
                < self.config.max_in_flight_per_client)

    def _grant(self, client: str) -> None:
        self._in_flight[client] = self._in_flight.get(client, 0) + 1
        self._total_in_flight += 1
        self._admitted_total += 1

    # ------------------------------------------------------------------ #
    # Drain
    # ------------------------------------------------------------------ #
    def begin_drain(self) -> None:
        """Reject new/waiting work from now on; in-flight work completes."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    @property
    def draining(self) -> bool:
        with self._cond:
            return self._draining

    def drain(self, timeout_seconds: float = 10.0) -> bool:
        """Wait for in-flight work to retire; ``True`` when fully drained.

        Call :meth:`begin_drain` first — otherwise new admissions can keep
        the window occupied indefinitely.
        """
        deadline = time.monotonic() + timeout_seconds
        with self._cond:
            while self._total_in_flight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """The gate's live state and lifetime counters, one consistent read."""
        with self._cond:
            return {
                "max_in_flight": self.config.max_in_flight,
                "max_in_flight_per_client": self.config.max_in_flight_per_client,
                "max_queued": self.config.max_queued,
                "queue_timeout_seconds": self.config.queue_timeout_seconds,
                "in_flight": self._total_in_flight,
                "queued": self._queued,
                "draining": self._draining,
                "admitted_total": self._admitted_total,
                "rejected_queue_full": self._rejected_queue_full,
                "rejected_timeout": self._rejected_timeout,
                "rejected_draining": self._rejected_draining,
                "in_flight_by_client": dict(self._in_flight),
            }


# --------------------------------------------------------------------------- #
# Per-client sessions
# --------------------------------------------------------------------------- #
class ClientSession:
    """One client's service-side state: prepared handles and counters.

    Handles hold their queries weakly, so a handle lives exactly as long as
    the engine session's prepared cache (or an in-flight request) holds its
    query; after that it answers ``unknown-query``.  Handle numbers come
    from the registry's one counter (``handle_ids``), so no handle string is
    ever given out twice, not even to a client dropped and seen again.
    """

    def __init__(self, client_id: str, handle_ids: Iterator[int]) -> None:
        self.client_id = client_id
        self.created_at = time.time()
        self._lock = threading.Lock()
        self._handles: "weakref.WeakValueDictionary[str, Any]" = \
            weakref.WeakValueDictionary()
        # A prepared query's handle, keyed by the query itself (an id could
        # be reused once the query is freed): the session's prepare cache
        # hands a repeated prepare the same object, which keeps its handle.
        self._handle_of: "weakref.WeakKeyDictionary[Any, str]" = \
            weakref.WeakKeyDictionary()
        self._handle_ids = handle_ids
        self.requests = 0
        self.errors = 0
        self.last_seen = self.created_at

    def touch(self, *, error: bool = False) -> None:
        """Record one request (and optionally its failure) against the client."""
        with self._lock:
            self.requests += 1
            if error:
                self.errors += 1
            self.last_seen = time.time()

    def register(self, prepared: Any) -> str:
        """Store a prepared query; return its per-client handle.

        A query already stored keeps the handle it was given, so re-preparing
        does not grow the client's table.
        """
        with self._lock:
            handle = self._handle_of.get(prepared)
            if handle is None:
                handle = f"q-{next(self._handle_ids)}"
                self._handles[handle] = prepared
                self._handle_of[prepared] = handle
            return handle

    def prepared(self, handle: str) -> Any:
        """The prepared query behind ``handle`` (:class:`UnknownQueryError` else)."""
        with self._lock:
            prepared = self._handles.get(handle)
        if prepared is None:
            raise UnknownQueryError(handle)
        return prepared

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"client": self.client_id,
                    "prepared_queries": len(self._handles),
                    "requests": self.requests,
                    "errors": self.errors,
                    "created_at": self.created_at,
                    "last_seen": self.last_seen}


class ClientRegistry:
    """The service's client table: sessions created on first contact.

    At most :data:`CLIENT_CAPACITY` sessions are kept, least recently seen
    evicted first.
    """

    def __init__(self) -> None:
        self._clients: LRUCache[ClientSession] = LRUCache(CLIENT_CAPACITY)
        self._handle_ids = itertools.count(1)

    def session(self, client_id: str) -> ClientSession:
        """The (created-on-demand) session for ``client_id``."""
        return self._clients.get_or_build(
            client_id, lambda: ClientSession(client_id, self._handle_ids))

    def sessions(self) -> Tuple[ClientSession, ...]:
        return tuple(self._clients.values())

    def snapshot(self) -> Dict[str, Any]:
        sessions = self.sessions()
        return {"clients": len(sessions),
                "sessions": [session.snapshot() for session in sessions]}
