"""The engine's one bounded cache: a thread-safe LRU that builds on a miss.

Plans and prepared queries depend only on a schema's hypergraph (plus the
outputs and options a query was prepared with), so the engine compiles each
once and looks it up afterwards.  :class:`LRUCache` is the one structure
that holds such compilations — the planner's structure and cyclic plans and
the session's prepared queries.

:meth:`LRUCache.get_or_build` runs the build *outside* the lock.  A slow
compilation never blocks lookups of other keys, and a build may itself look
up other keys (the cyclic planner compiles its quotient's plan from inside
its own build) without deadlocking.  Two threads racing on one cold key may
both build; the first value stored wins and both callers get it, so every
caller of a key sees one object.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, List, TypeVar

__all__ = ["PlanCacheInfo", "LRUCache"]

V = TypeVar("V")

_MISSING = object()


@dataclass(frozen=True)
class PlanCacheInfo:
    """An LRU cache's counts (cumulative) and its size and capacity."""

    hits: int
    misses: int
    size: int
    capacity: int
    evictions: int = 0


class LRUCache(Generic[V]):
    """A bounded, thread-safe LRU map whose misses build their value.

    A lookup counts one hit when the key is resident.  Otherwise it counts
    one miss once ``build`` returns; a ``build`` that raises stores and
    counts nothing.  Inserting beyond ``capacity`` evicts (and counts) the
    least recently used entry.  :meth:`clear` drops entries, never counts.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self._capacity = capacity
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        """The maximum number of resident entries."""
        return self._capacity

    def get_or_build(self, key: Hashable, build: Callable[[], V]) -> V:
        """The value cached under ``key``, built by ``build()`` on a miss."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self._hits += 1
                return value
        value = build()
        with self._lock:
            self._misses += 1
            stored = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            if len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            return stored

    def values(self) -> List[V]:
        """The resident values, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        """Drop every entry; the hit, miss and eviction counts persist."""
        with self._lock:
            self._entries.clear()

    def info(self) -> PlanCacheInfo:
        """The current counts, size and capacity."""
        with self._lock:
            return PlanCacheInfo(hits=self._hits, misses=self._misses,
                                 size=len(self._entries),
                                 capacity=self._capacity,
                                 evictions=self._evictions)
