"""Admission control: caps, the bounded queue, overload pushback, drain."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.service.admission import (
    AdmissionConfig,
    AdmissionController,
    ClientRegistry,
)
from repro.service.protocol import (
    OverloadedError,
    ShuttingDownError,
    UnknownQueryError,
)


def _controller(**overrides):
    defaults = dict(max_in_flight=2, max_in_flight_per_client=1,
                    max_queued=1, queue_timeout_seconds=0.2)
    defaults.update(overrides)
    return AdmissionController(AdmissionConfig(**defaults))


# --------------------------------------------------------------------------- #
# Config validation
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("overrides", [
    {"max_in_flight": 0},
    {"max_in_flight_per_client": 0},
    {"max_queued": -1},
    {"queue_timeout_seconds": 0.0},
])
def test_config_rejects_nonsense(overrides):
    with pytest.raises(ValueError):
        _controller(**overrides)


# --------------------------------------------------------------------------- #
# The caps
# --------------------------------------------------------------------------- #
def test_grants_up_to_the_global_cap():
    gate = _controller(max_in_flight=2, max_in_flight_per_client=2,
                       max_queued=0)
    gate.acquire("a")
    gate.acquire("a")
    snapshot = gate.snapshot()
    assert snapshot["in_flight"] == 2
    assert snapshot["in_flight_by_client"] == {"a": 2}
    gate.release("a")
    gate.release("a")
    assert gate.snapshot()["in_flight"] == 0
    assert gate.snapshot()["in_flight_by_client"] == {}


def test_per_client_cap_binds_before_the_global_one():
    gate = _controller(max_in_flight=4, max_in_flight_per_client=1,
                       max_queued=0)
    gate.acquire("a")
    # Client a is at its share; client b still fits under the global cap.
    with pytest.raises(OverloadedError):
        gate.acquire("a")
    gate.acquire("b")
    gate.release("a")
    gate.release("b")


def test_queue_full_rejects_immediately():
    gate = _controller(max_in_flight=1, max_queued=0)
    gate.acquire("a")
    started = time.monotonic()
    with pytest.raises(OverloadedError):
        gate.acquire("b")
    # max_queued=0 must bounce without consuming the queue timeout.
    assert time.monotonic() - started < 0.15
    assert gate.snapshot()["rejected_queue_full"] == 1
    gate.release("a")


def test_queued_waiter_times_out_with_retry_hint():
    gate = _controller(max_in_flight=1, max_queued=1,
                       queue_timeout_seconds=0.05)
    gate.acquire("a")
    with pytest.raises(OverloadedError) as caught:
        gate.acquire("b")
    assert caught.value.retry_after_seconds == pytest.approx(0.05)
    assert gate.snapshot()["rejected_timeout"] == 1
    gate.release("a")


def test_queued_waiter_is_granted_when_a_slot_frees():
    gate = _controller(max_in_flight=1, max_queued=1,
                       queue_timeout_seconds=5.0)
    gate.acquire("a")
    granted = threading.Event()

    def waiter():
        gate.acquire("b")
        granted.set()

    thread = threading.Thread(target=waiter)
    thread.start()
    time.sleep(0.05)
    assert not granted.is_set()
    assert gate.snapshot()["queued"] == 1
    gate.release("a")
    assert granted.wait(timeout=2.0)
    thread.join()
    snapshot = gate.snapshot()
    assert snapshot["queued"] == 0
    assert snapshot["admitted_total"] == 2
    gate.release("b")


# --------------------------------------------------------------------------- #
# Drain
# --------------------------------------------------------------------------- #
def test_drain_rejects_new_work_but_lets_in_flight_finish():
    gate = _controller()
    gate.acquire("a")
    gate.begin_drain()
    with pytest.raises(ShuttingDownError):
        gate.acquire("b")
    assert not gate.drain(timeout_seconds=0.05)  # still one in flight
    gate.release("a")
    assert gate.drain(timeout_seconds=1.0)
    assert gate.snapshot()["rejected_draining"] == 1


def test_drain_wakes_queued_waiters_with_shutting_down():
    gate = _controller(max_in_flight=1, max_queued=1,
                       queue_timeout_seconds=5.0)
    gate.acquire("a")
    outcome = []

    def waiter():
        try:
            gate.acquire("b")
            outcome.append("granted")
        except ShuttingDownError:
            outcome.append("rejected")

    thread = threading.Thread(target=waiter)
    thread.start()
    time.sleep(0.05)
    gate.begin_drain()
    thread.join(timeout=2.0)
    assert outcome == ["rejected"]
    gate.release("a")


def test_admit_context_manager_releases_on_error():
    gate = _controller()
    with pytest.raises(RuntimeError):
        with gate.admit("a"):
            assert gate.snapshot()["in_flight"] == 1
            raise RuntimeError("boom")
    assert gate.snapshot()["in_flight"] == 0


# --------------------------------------------------------------------------- #
# The client registry
# --------------------------------------------------------------------------- #
def test_registry_creates_sessions_on_first_contact():
    registry = ClientRegistry()
    first = registry.session("tenant-1")
    assert registry.session("tenant-1") is first
    assert registry.session("tenant-2") is not first
    assert registry.snapshot()["clients"] == 2


class _Query:
    """A stand-in prepared query (a handle holds its query weakly)."""


def test_handles_are_per_client():
    registry = ClientRegistry()
    marker = _Query()
    handle = registry.session("a").register(marker)
    assert registry.session("a").prepared(handle) is marker
    # The same handle string means nothing to another client.
    with pytest.raises(UnknownQueryError):
        registry.session("b").prepared(handle)


def test_concurrent_registers_never_give_out_one_handle_twice():
    registry = ClientRegistry()
    workers = 8
    queries = [_Query() for _ in range(workers * 200)]
    handles = [None] * len(queries)

    def register(worker):
        session = registry.session(f"client-{worker % 3}")
        for index in range(worker, len(queries), workers):
            handles[index] = session.register(queries[index])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=register, args=(worker,))
                   for worker in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(set(handles)) == len(queries)


def test_touch_accumulates_counters():
    session = ClientRegistry().session("a")
    session.touch()
    session.touch(error=True)
    snapshot = session.snapshot()
    assert snapshot["requests"] == 2
    assert snapshot["errors"] == 1
