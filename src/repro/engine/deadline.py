"""Cooperative execution deadlines, threaded ambiently through contextvars.

``ExecutionOptions(deadline_seconds=…)`` gives one execution a wall-clock
budget.  The budget is enforced *cooperatively*: the evaluators call
:func:`check_deadline` between phases (prepare / materialise / encode /
reduce / fold / decode), the catalog once per relation while a never-seen
database is measured and encoded (``ingest`` — under an ambient scope such as
the query service's), the query service once before it builds a response's
rows from the result block (``payload``), and all raise
:class:`~repro.exceptions.ExecutionTimeoutError` when the budget is spent.
A phase that is already running is never interrupted mid-flight — the
overshoot is bounded by the longest single phase, which keeps the check
free of signals, threads or any per-row cost.

Like the tracer (:mod:`repro.telemetry.tracing`), the active deadline is a
:mod:`contextvars` variable rather than a parameter: the evaluator, a
cyclic plan's materialise step and the kernels all see the same deadline
without any signature plumbing, and the service's thread pool propagates it
into worker threads by running jobs under ``contextvars.copy_context()``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter
from typing import Iterator, Optional, Tuple

from ..exceptions import ExecutionTimeoutError

__all__ = ["deadline_scope", "active_deadline", "remaining_seconds",
           "check_deadline", "valid_budget"]

#: The ambient deadline: ``(expires_at_perf_counter, budget_seconds)`` or None.
_DEADLINE: "ContextVar[Optional[Tuple[float, float]]]" = ContextVar(
    "repro_active_deadline", default=None)


def valid_budget(seconds: object) -> bool:
    """Whether ``seconds`` is a usable deadline budget: a finite number above 0.

    NaN and infinity are not: a NaN expiry compares false against every
    clock reading, so such a deadline would never fire.
    """
    return isinstance(seconds, (int, float)) and not isinstance(seconds, bool) \
        and math.isfinite(seconds) and seconds > 0


@contextmanager
def deadline_scope(seconds: Optional[float]) -> Iterator[None]:
    """Install a wall-clock budget for the dynamic extent of the block.

    ``None`` is a no-op scope (no deadline).  Scopes nest: an inner scope
    sees only its own budget and the outer budget is restored on exit.  The
    clock starts at entry — installing the scope *is* starting the timer.
    """
    if seconds is None:
        yield
        return
    if not valid_budget(seconds):
        raise ValueError("a deadline budget must be a finite positive "
                         f"number, not {seconds!r}")
    token = _DEADLINE.set((perf_counter() + seconds, seconds))
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def active_deadline() -> Optional[Tuple[float, float]]:
    """The ambient ``(expires_at, budget_seconds)`` pair, or ``None``."""
    return _DEADLINE.get()


def remaining_seconds() -> Optional[float]:
    """Seconds left on the ambient deadline (``None`` when none is active).

    May be negative once the budget is spent — callers that poll rather than
    raise (e.g. admission queues) can use the sign directly.
    """
    state = _DEADLINE.get()
    if state is None:
        return None
    return state[0] - perf_counter()


def check_deadline(phase: str) -> None:
    """Raise :class:`ExecutionTimeoutError` if the ambient budget is spent.

    The hot path — no deadline installed — is one contextvar read and an
    ``is None`` test.  ``phase`` names the phase *about to start*, which is
    what the error reports (the breach was observed entering it).
    """
    state = _DEADLINE.get()
    if state is None:
        return
    expires_at, budget = state
    now = perf_counter()
    if now >= expires_at:
        raise ExecutionTimeoutError(
            phase=phase, deadline_seconds=budget,
            elapsed_seconds=budget + (now - expires_at))
