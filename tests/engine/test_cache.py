"""Unit tests for the engine's one bounded cache, :class:`LRUCache`."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.engine import PlanCacheInfo
from repro.engine.cache import LRUCache


class TestLRUOrder:
    def test_evicts_the_least_recently_used_at_capacity(self):
        cache = LRUCache(2)
        built = []

        def lookup(key):
            return cache.get_or_build(key, lambda: built.append(key) or key)

        lookup("a")
        lookup("b")
        lookup("a")  # "a" is now the most recent
        lookup("c")  # evicts "b"
        assert cache.values() == ["a", "c"]
        lookup("b")
        assert built == ["a", "b", "c", "b"]
        assert cache.values() == ["c", "b"]

    def test_size_never_exceeds_capacity(self):
        cache = LRUCache(3)
        for key in range(10):
            cache.get_or_build(key, lambda key=key: key)
        assert cache.info().size == 3
        assert cache.values() == [7, 8, 9]

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_capacity_below_one_raises(self, capacity):
        with pytest.raises(ValueError):
            LRUCache(capacity)


class TestCounters:
    def test_hits_and_misses(self):
        cache = LRUCache(4)
        first = cache.get_or_build("k", lambda: object())
        assert cache.get_or_build("k", lambda: object()) is first
        assert cache.get_or_build("k", lambda: object()) is first
        cache.get_or_build("other", lambda: object())
        assert cache.info() == PlanCacheInfo(hits=2, misses=2, size=2, capacity=4)

    def test_clear_drops_entries_and_keeps_counts(self):
        cache = LRUCache(4)
        cache.get_or_build("k", lambda: 1)
        cache.get_or_build("k", lambda: 2)
        before = cache.info()
        cache.clear()
        assert cache.info() == PlanCacheInfo(hits=1, misses=1, size=0, capacity=4)
        assert cache.get_or_build("k", lambda: 3) == 3
        after = cache.info()
        assert (after.hits - before.hits, after.misses - before.misses) == (0, 1)

    def test_evictions_are_counted_and_survive_a_clear(self):
        cache = LRUCache(2)
        for key in range(5):
            cache.get_or_build(key, lambda key=key: key)
        assert cache.info() == PlanCacheInfo(hits=0, misses=5, size=2,
                                             capacity=2, evictions=3)
        cache.clear()
        assert cache.info().evictions == 3
        assert vars(cache.info()) == {"hits": 0, "misses": 5, "size": 0,
                                      "capacity": 2, "evictions": 3}

    def test_failed_build_inserts_and_counts_nothing(self):
        cache = LRUCache(4)

        def failing():
            raise RuntimeError("no plan")

        with pytest.raises(RuntimeError):
            cache.get_or_build("k", failing)
        assert cache.info() == PlanCacheInfo(hits=0, misses=0, size=0, capacity=4)
        assert cache.values() == []
        assert cache.get_or_build("k", lambda: "built") == "built"
        assert cache.info().misses == 1


class TestBuilds:
    def test_nested_build_returns(self):
        # A build may look up other keys of the same cache, as the cyclic
        # planner does when it compiles its quotient's plan.
        cache = LRUCache(4)
        outer = cache.get_or_build(
            "outer", lambda: ("outer", cache.get_or_build("inner", lambda: "inner")))
        assert outer == ("outer", "inner")
        # The nested build finishes, and so is stored, first.
        assert cache.values() == ["inner", outer]
        assert cache.info().misses == 2

    def test_racing_threads_get_one_object(self):
        cache = LRUCache(2)
        threads = 8
        barrier = threading.Barrier(threads)
        results = [None] * threads
        errors = []

        def build():
            time.sleep(0.01)  # keep the builders overlapping
            return object()

        def worker(index):
            try:
                barrier.wait()
                results[index] = cache.get_or_build("cold", build)
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        workers = [threading.Thread(target=worker, args=(index,))
                   for index in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        assert not errors
        assert all(result is results[0] for result in results)
        info = cache.info()
        assert info.size <= info.capacity
        assert info.hits + info.misses == threads
