"""The thread-pool execution layer: context-propagating, order-preserving.

A thin, accountable wrapper over :class:`concurrent.futures.ThreadPoolExecutor`
with the two properties the engine needs and the stdlib does not give:

* **ambient context propagates** — every job runs under a
  ``contextvars.copy_context()`` snapshot taken at submit time, so the
  submitting thread's tracer (:func:`~repro.telemetry.tracing.use_tracer`),
  execution deadline (:func:`~repro.engine.deadline.deadline_scope`) and
  request span tags (:func:`~repro.telemetry.tracing.use_span_tags`) all
  apply inside the worker exactly as they would in a serial call;
* **batch semantics** — :meth:`ExecutionPool.map_ordered` returns results in
  submission order and re-raises the *first* failure (by position) after
  cancelling whatever had not started, which is what
  ``PreparedQuery.execute_many`` promises.

Throughput note: prepared-query execution is pure Python, so the GIL
serialises CPU-bound runs — an in-process pool overlaps *waiting* (native
code that releases the GIL) rather than multiplying compute.  The query
service runs requests on their connections' threads, never here: its pool
only fans ``execute_many`` batches out.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

__all__ = ["ExecutionPool", "default_pool_size"]


def default_pool_size() -> int:
    """The default worker count: 8, or the CPU count when that is larger.

    Eight covers the service's default admission window (global in-flight
    cap + queue) on any machine; larger hosts get one worker per core so
    GIL-releasing backends can actually use them.
    """
    return max(8, os.cpu_count() or 1)


class ExecutionPool:
    """A context-propagating thread pool with ordered batch execution.

    Usable as a context manager (shuts down on exit, waiting for running
    jobs) and shareable: the query service owns one and passes it to every
    ``execute_many`` as ``pool=``, the one way to run a batch in parallel.
    """

    def __init__(self, max_workers: Optional[int] = None, *,
                 thread_name_prefix: str = "repro-exec") -> None:
        if max_workers is None:
            max_workers = default_pool_size()
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self._max_workers = max_workers
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix=thread_name_prefix)
        self._lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._active = 0
        self._shutdown = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def max_workers(self) -> int:
        """The pool's worker-thread cap."""
        return self._max_workers

    def snapshot(self) -> Dict[str, int]:
        """Lifetime counters: submitted / completed / failed / active jobs."""
        with self._lock:
            return {"max_workers": self._max_workers,
                    "submitted": self._submitted,
                    "completed": self._completed,
                    "failed": self._failed,
                    "active": self._active}

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def submit(self, fn: Callable[..., Any], /, *args: Any,
               **kwargs: Any) -> "Future[Any]":
        """Run ``fn(*args, **kwargs)`` on a worker under the caller's context."""
        context = contextvars.copy_context()
        with self._lock:
            if self._shutdown:
                raise RuntimeError("cannot submit to a shut-down ExecutionPool")
            self._submitted += 1
        return self._executor.submit(self._run_job, context, fn, args, kwargs)

    def _run_job(self, context: contextvars.Context,
                 fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        with self._lock:
            self._active += 1
        try:
            result = context.run(fn, *args, **kwargs)
        except BaseException:
            with self._lock:
                self._active -= 1
                self._failed += 1
            raise
        with self._lock:
            self._active -= 1
            self._completed += 1
        return result

    def map_ordered(self, fn: Callable[[Any], Any],
                    items: Iterable[Any]) -> List[Any]:
        """``[fn(item) for item in items]`` on the pool, order preserved.

        All items are submitted up front (the pool's worker cap bounds the
        real concurrency); the first failure *by submission order* is
        re-raised after not-yet-started jobs are cancelled and running ones
        have finished — callers never see a partial batch.
        """
        futures: Sequence[Future] = [self.submit(fn, item) for item in items]
        error: Optional[BaseException] = None
        results: List[Any] = []
        for future in futures:
            if error is None:
                try:
                    results.append(future.result())
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    error = exc
                    for pending in futures:
                        pending.cancel()
            else:
                # Drain so no job is still touching shared state when the
                # caller handles the failure; cancelled futures raise
                # CancelledError, which the drain swallows.
                try:
                    future.result()
                except BaseException:  # noqa: BLE001 - draining only
                    pass
        if error is not None:
            raise error
        return results

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs; optionally wait for running ones to finish."""
        with self._lock:
            self._shutdown = True
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "ExecutionPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown(wait=True)
        return False
