"""Span tracing: nested context-manager spans, null-tracer hot path, JSONL sinks.

The engine's layers (planner → reducer/fold → kernels → session) are
instrumented with *spans* — named, nested wall-time intervals carrying a few
attributes (cardinalities, column backend, cache hits).  Instrumentation
sites read the ambient tracer from a :mod:`contextvars` variable
(:func:`current_tracer`), so tracing composes with threads and needs no
plumbing through a dozen call signatures:

* **disabled** (the default): :data:`NULL_TRACER` hands out one shared
  no-op span object — no dict, no list, no timestamps, nothing allocated on
  the hot path;
* **enabled**: ``with use_tracer(Tracer()) as tracer: …`` records every
  span as a plain dict (``span_id``/``parent_id``/``name``/``ts``/``start``/
  ``end``/``duration``/``attributes``) and forwards it to any registered
  :class:`TraceSink` (e.g. :class:`JsonlTraceSink`).

Attributes are only attached via ``span.set(key, value)`` guarded by
``span.is_recording``, so disabled runs never even build the values.
Parent/child relationships come from a per-thread span stack owned by the
tracer: spans opened on different threads under one tracer are separate
roots, never cross-parented.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
    "current_span_tags",
    "use_span_tags",
    "TraceSink",
    "JsonlTraceSink",
    "span_totals",
    "merge_phase_times",
]

#: One trace record: the dict a finished span turns into.
TraceRecord = Dict[str, object]


class _NullSpan:
    """The shared no-op span — enter, exit and ``set`` all do nothing."""

    __slots__ = ()
    is_recording = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value: object) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every ``span`` call returns the one null span."""

    __slots__ = ()
    enabled = False
    records: Tuple[TraceRecord, ...] = ()

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN


NULL_TRACER = NullTracer()
"""The module-level null tracer — the ambient default when nothing traces."""

_ACTIVE_TRACER: "ContextVar[object]" = ContextVar("repro_active_tracer",
                                                  default=NULL_TRACER)


def current_tracer():
    """The ambient tracer instrumentation sites record against."""
    return _ACTIVE_TRACER.get()


@contextmanager
def use_tracer(tracer) -> Iterator[object]:
    """Activate ``tracer`` for the dynamic extent of the ``with`` block.

    ``None`` activates the null tracer (an explicit "trace nothing here").
    The previous tracer is restored on exit, so activations nest.
    """
    token = _ACTIVE_TRACER.set(tracer if tracer is not None else NULL_TRACER)
    try:
        yield _ACTIVE_TRACER.get()
    finally:
        _ACTIVE_TRACER.reset(token)


#: Ambient attributes stamped onto recording root spans: the query service
#: installs ``(client, request_id)`` here so every span a request produces is
#: attributable without threading ids through the engine's signatures.
_SPAN_TAGS: "ContextVar[Tuple[Tuple[str, object], ...]]" = ContextVar(
    "repro_span_tags", default=())


def current_span_tags() -> Tuple[Tuple[str, object], ...]:
    """The ambient ``(key, value)`` tags for spans opened in this context."""
    return _SPAN_TAGS.get()


@contextmanager
def use_span_tags(**tags: object) -> Iterator[Tuple[Tuple[str, object], ...]]:
    """Merge ``tags`` into the ambient span tags for the ``with`` block.

    Tags accumulate across nested scopes (inner values win on key clashes)
    and propagate wherever contextvars do — including into pool threads run
    under ``contextvars.copy_context()``.  Instrumentation sites apply them
    with ``span.set`` guarded by ``is_recording``, so untraced runs pay one
    contextvar read and nothing else.
    """
    merged = dict(_SPAN_TAGS.get())
    merged.update(tags)
    token = _SPAN_TAGS.set(tuple(merged.items()))
    try:
        yield _SPAN_TAGS.get()
    finally:
        _SPAN_TAGS.reset(token)


class Span:
    """One recording span: a named wall-time interval with attributes.

    Entering pushes the span on the tracer's per-thread stack (the stack top
    becomes the parent); exiting pops it, stamps the end time and hands the
    finished record to the tracer.  An exception escaping the body is noted
    in the ``error`` attribute and re-raised — tracing never swallows.
    """

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "ts", "start",
                 "end", "attributes")
    is_recording = True

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = tracer._next_id()
        self.parent_id: Optional[int] = None
        self.ts = 0.0
        self.start = 0.0
        self.end = 0.0
        self.attributes: Dict[str, object] = {}

    def set(self, key: str, value: object) -> "Span":
        """Attach one attribute; chainable."""
        self.attributes[key] = value
        return self

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        if stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        self.ts = time.time()
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._record(self)
        return False


class Tracer:
    """A recording tracer: in-memory records plus pluggable sinks.

    Records accumulate in :attr:`records` in span *completion* order (a
    parent finishes after its children, so ``end`` is monotonic across the
    list).  Sinks receive each record as it completes — a long-lived service
    can stream JSONL without ever holding the whole trace.
    """

    enabled = True

    def __init__(self, *, sinks: Sequence["TraceSink"] = ()) -> None:
        self.records: List[TraceRecord] = []
        self._sinks: List[TraceSink] = list(sinks)
        self._counter = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def span(self, name: str) -> Span:
        """A new span; record it by using it as a context manager."""
        return Span(self, name)

    def add_sink(self, sink: "TraceSink") -> "TraceSink":
        """Register a sink for future records; returns the sink."""
        with self._lock:
            self._sinks.append(sink)
        return sink

    def clear(self) -> None:
        """Drop the accumulated in-memory records (sinks are untouched)."""
        with self._lock:
            self.records.clear()

    # -- internals used by Span ------------------------------------------- #
    def _next_id(self) -> int:
        return next(self._counter)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: Span) -> None:
        record: TraceRecord = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "ts": span.ts,
            "start": span.start,
            "end": span.end,
            "duration": span.end - span.start,
            "attributes": dict(span.attributes),
        }
        with self._lock:
            self.records.append(record)
            sinks = tuple(self._sinks)
        for sink in sinks:
            sink.emit(record)


class TraceSink:
    """The sink interface: ``emit`` one finished record, ``close`` when done."""

    def emit(self, record: TraceRecord) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources; the default is a no-op."""


class JsonlTraceSink(TraceSink):
    """Write each record as one JSON line to a path or an open text stream.

    Opened paths are owned (and closed by :meth:`close` / the context
    manager); caller-supplied streams are written to but never closed.
    Attribute values outside the JSON types fall back to ``str``.
    """

    def __init__(self, target: Union[str, "object"]) -> None:
        if hasattr(target, "write"):
            self._handle = target
            self._owns_handle = False
        else:
            self._handle = open(target, "a", encoding="utf-8")
            self._owns_handle = True
        self._lock = threading.Lock()

    def emit(self, record: TraceRecord) -> None:
        line = json.dumps(record, default=str)
        with self._lock:
            self._handle.write(line + "\n")

    def close(self) -> None:
        with self._lock:
            if self._owns_handle:
                self._handle.close()
            else:
                self._handle.flush()

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def span_totals(records: Sequence[TraceRecord]) -> Dict[str, float]:
    """Total ``duration`` per span name over a record sequence.

    Note that nested spans both count — a ``reduce`` total includes the
    ``kernel:semijoin`` time spent inside it; compare like with like.
    """
    totals: Dict[str, float] = {}
    for record in records:
        name = str(record.get("name"))
        totals[name] = totals.get(name, 0.0) + float(record.get("duration", 0.0))
    return totals


def merge_phase_times(*sequences: Sequence[Tuple[str, float]]
                      ) -> Tuple[Tuple[str, float], ...]:
    """Sum ``(phase, seconds)`` sequences by phase name, first-seen order.

    Used to combine an outer run's phases with an inner run's (the cyclic
    executor embedding an acyclic evaluation) and to aggregate batches.
    """
    totals: "Dict[str, float]" = {}
    for sequence in sequences:
        for phase, seconds in sequence:
            totals[phase] = totals.get(phase, 0.0) + seconds
    return tuple(totals.items())
