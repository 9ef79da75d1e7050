"""The blocking HTTP/1.1 transport at both ends of the service.

The client is held to its framing against a raw-socket peer that answers
whatever bytes a test scripts; the server is held to its concurrency shape
— a connection is a thread, at most ``max_in_flight + max_queued + 4`` of
them, an idle or stalled one makes room for a new one, a connection past a
busy cap gets the ``overloaded`` envelope, and ``close`` leaves no thread
behind — over real sockets.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import socket
import sys
import threading
import time

import pytest

from repro.engine.session import EngineSession
from repro.generators import skewed_chain_database, skewed_chain_endpoints
from repro.service import (
    AdmissionConfig,
    QueryService,
    ServiceCallError,
    ServiceClient,
    ServiceServer,
)
from repro.service import protocol
from repro.service import server as server_module
from repro.service.protocol import read_message

OK_BODY = b'{"ok": true, "result": {"answer": 42}}'


def _response(status_line: bytes = b"HTTP/1.1 200 OK", *,
              headers: bytes = b"", body: bytes = OK_BODY,
              length: bool = True) -> bytes:
    head = status_line + b"\r\nContent-Type: application/json\r\n" + headers
    if length:
        head += b"Content-Length: %d\r\n" % len(body)
    return head + b"\r\n" + body


class FakeService:
    """A raw-socket peer: connection ``i`` runs ``script(connection, i)``.

    Connections are served one after another on one thread, which is all a
    single :class:`ServiceClient` ever needs.
    """

    def __init__(self, script) -> None:
        self.script = script
        self.connections = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self) -> None:
        while True:
            try:
                connection, _ = self.listener.accept()
            except OSError:
                return
            index, self.connections = self.connections, self.connections + 1
            with connection, connection.makefile("rb") as stream:
                try:
                    self.script(connection, stream, index)
                except OSError:
                    pass

    def close(self) -> None:
        self.listener.shutdown(socket.SHUT_RDWR)
        self.listener.close()
        self.thread.join(timeout=10)


@pytest.fixture
def fake():
    opened = []

    def open_fake(script):
        opened.append(FakeService(script))
        return opened[-1]
    yield open_fake
    for service in opened:
        service.close()


def _answer_each_request(*responses: bytes):
    """A script answering one request per response, then closing."""
    def script(connection, stream, index):
        for response in responses:
            assert read_message(stream) is not None
            connection.sendall(response)
    return script


# --------------------------------------------------------------------------- #
# The client's framing
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("response", [
    _response(length=False),
    _response(headers=b"Transfer-Encoding: chunked\r\n", length=False,
              body=b"%x\r\n%s\r\n0\r\n\r\n" % (len(OK_BODY), OK_BODY)),
    _response(b"ICY 200 OK"),
    _response(b"HTTP/2 200"),
    _response(b"HTTP/1.1 two-hundred OK"),
], ids=["no-content-length", "chunked", "not-http", "http-2", "bad-status"])
def test_a_response_the_framing_rejects_is_a_transport_error(fake, response):
    service = fake(_answer_each_request(response))
    with ServiceClient(service.url) as client:
        with pytest.raises(ServiceCallError) as caught:
            client.stats()
    assert caught.value.code == "transport-error"


def test_a_transport_error_drops_the_connection(fake):
    service = fake(lambda connection, stream, index: _answer_each_request(
        _response(length=False) if index == 0 else _response())(
            connection, stream, index))
    with ServiceClient(service.url) as client:
        with pytest.raises(ServiceCallError):
            client.stats()
        assert client.stats() == {"answer": 42}
    assert service.connections == 2


def test_connection_close_drops_the_socket_and_the_next_call_reconnects(fake):
    service = fake(_answer_each_request(
        _response(headers=b"Connection: close\r\n")))
    with ServiceClient(service.url) as client:
        assert client.stats() == {"answer": 42}
        assert client._socket is None
        assert client.stats() == {"answer": 42}
    assert service.connections == 2


def test_keep_alive_reuses_one_connection(fake):
    service = fake(_answer_each_request(_response(), _response(), _response()))
    with ServiceClient(service.url) as client:
        for _ in range(3):
            assert client.stats() == {"answer": 42}
    assert service.connections == 1


def test_a_keep_alive_dropped_while_idle_is_retried_on_a_new_connection(fake):
    # Connection 0 answers once, then the peer closes it while it is idle.
    service = fake(_answer_each_request(_response()))
    with ServiceClient(service.url) as client:
        assert client.stats() == {"answer": 42}
        assert client.stats() == {"answer": 42}
    assert service.connections == 2


def test_the_retry_happens_exactly_once(fake):
    def script(connection, stream, index):
        if index == 0:      # answers, then drops the idle keep-alive
            _answer_each_request(_response())(connection, stream, index)
        elif index == 1:    # the retry: read the request, close unanswered
            read_message(stream)
        else:               # a second retry would be answered
            _answer_each_request(_response())(connection, stream, index)

    service = fake(script)
    with ServiceClient(service.url) as client:
        assert client.stats() == {"answer": 42}
        with pytest.raises(ConnectionError):
            client.stats()
    assert service.connections == 2


def test_the_request_body_limit_does_not_bound_a_response(fake, monkeypatch):
    monkeypatch.setattr(protocol, "_MAX_BODY_BYTES", 8)
    service = fake(_answer_each_request(_response()))
    with ServiceClient(service.url) as client:
        assert client.stats() == {"answer": 42}


def test_a_fresh_connection_is_not_retried(fake):
    service = fake(lambda connection, stream, index: read_message(stream))
    with ServiceClient(service.url) as client:
        with pytest.raises(ConnectionError):
            client.stats()
    assert service.connections == 1


# --------------------------------------------------------------------------- #
# The server over real sockets
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def chain_database():
    return skewed_chain_database(3, heads=10, fanout=5, junction_values=3,
                                 seed=3)


def _service(database, **admission) -> QueryService:
    config = AdmissionConfig(**admission) if admission else None
    service = QueryService(EngineSession(), admission=config)
    service.add_database("chain", database)
    return service


def _server_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("repro-service-") and thread.is_alive()]


def _wait_for(predicate, seconds: float = 10.0) -> bool:
    deadline = time.monotonic() + seconds
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _relation_bytes(body: bytes) -> bytes:
    """A raw ``execute`` response's answer: everything from ``"relation"`` on."""
    return body[body.index(b'"relation": '):]


def test_eight_clients_on_threads_get_the_serial_bytes(chain_database):
    outputs = [str(attribute) for attribute in skewed_chain_endpoints(3)]
    interval = sys.getswitchinterval()
    with ServiceServer(_service(chain_database)) as server:
        with ServiceClient(server.url, client_id="shared") as serial:
            handle = serial.prepare("chain", outputs=outputs)
            request = json.dumps({
                "version": 1, "method": "execute", "client": "shared",
                "id": "same", "params": {"query": handle, "database": "chain"},
            }).encode("utf-8")
            status, _, body = serial._request("POST", "/v1", request)
            assert status == 200
            expected = _relation_bytes(body)
        barrier = threading.Barrier(8)
        answers, errors = [], []

        def run() -> None:
            try:
                with ServiceClient(server.url, client_id="shared") as client:
                    barrier.wait(timeout=10)
                    for _ in range(5):
                        status, _, body = client._request("POST", "/v1",
                                                          request)
                        answers.append((status, _relation_bytes(body)))
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=run) for _ in range(8)]
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # Every connection's slot was given back: only the accept thread.
        assert _wait_for(lambda: len(_server_threads()) == 1)
    assert errors == []
    assert answers == [(200, expected)] * 40


def test_an_idle_or_stalled_connection_does_not_delay_another(chain_database):
    with ServiceServer(_service(chain_database)) as server, \
            ServiceClient(server.url) as idle, \
            socket.create_connection(("127.0.0.1", server.port), timeout=10) as stalled:
        idle.stats()                                  # now parked, idle
        stalled.sendall(b"POST /v1 HTTP/1.1\r\nHost: x\r\n")  # half a head
        with ServiceClient(server.url, timeout_seconds=2.0) as other:
            started = time.perf_counter()
            handle = other.prepare("chain")
            assert other.execute(handle, "chain", include_rows=False)[
                "row_count"] > 0
            assert time.perf_counter() - started < 2.0


def test_close_with_idle_keep_alives_leaves_no_thread(chain_database):
    server = ServiceServer(_service(chain_database),
                           drain_timeout_seconds=2.0).start()
    clients = [ServiceClient(server.url, client_id=f"c{index}")
               for index in range(4)]
    for client in clients:
        client.stats()                                # each one now idle
    assert len(_server_threads()) == 1 + len(clients)
    started = time.perf_counter()
    server.close()
    assert time.perf_counter() - started < 2.0
    assert _server_threads() == []
    for client in clients:
        client.close()


def test_only_a_started_request_has_a_read_timeout(chain_database,
                                                  monkeypatch):
    monkeypatch.setattr(server_module, "_READ_TIMEOUT_SECONDS", 0.2)
    request = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"
    with ServiceServer(_service(chain_database)) as server, \
            socket.create_connection(("127.0.0.1", server.port), timeout=10) as idle, \
            socket.create_connection(("127.0.0.1", server.port), timeout=10) as stalled:
        stalled.sendall(request[:20])                 # half a head
        idle.sendall(request)
        with idle.makefile("rb") as stream:
            assert read_message(stream)[0][1] == "200"
            time.sleep(0.5)                           # idle past the timeout
            idle.sendall(request)
            assert read_message(stream)[0][1] == "200"
        assert stalled.recv(65536) == b""             # closed, unanswered


def _small_cap_service(database) -> QueryService:
    """A service whose server serves at most 1 + 0 + 4 = 5 connections."""
    return _service(database, max_in_flight=1, max_in_flight_per_client=1,
                    max_queued=0, queue_timeout_seconds=0.5)


CAP = 5


def test_idle_keep_alives_at_the_cap_make_room_for_a_new_client(
        chain_database):
    with ServiceServer(_small_cap_service(chain_database)) as server:
        idle = [ServiceClient(server.url, client_id=f"c{index}")
                for index in range(CAP)]
        for client in idle:
            client.stats()                            # each one now idle
        assert len(_server_threads()) == CAP + 1
        for _ in range(3):                            # cap + 3 connections
            with ServiceClient(server.url) as other:
                assert other.stats()["protocol_version"] == 1
            assert len(_server_threads()) <= CAP + 1
        # An evicted keep-alive is retried on a fresh connection, unseen.
        for client in idle:
            assert client.stats()["protocol_version"] == 1
            client.close()


def test_stalled_half_requests_at_the_cap_do_not_lock_out_a_client(
        chain_database):
    with ServiceServer(_small_cap_service(chain_database)) as server:
        stalled = [socket.create_connection(("127.0.0.1", server.port), timeout=10)
                   for _ in range(CAP)]
        for sock in stalled:
            sock.sendall(b"POST /v1 HTTP/1.1\r\nHost: x\r\n")  # half a head
        assert _wait_for(lambda: len(_server_threads()) == CAP + 1)
        with ServiceClient(server.url, timeout_seconds=2.0) as other:
            started = time.perf_counter()
            assert other.stats()["protocol_version"] == 1
            assert time.perf_counter() - started < 2.0
        assert len(_server_threads()) <= CAP + 1
        # The evicted half-request was closed, not answered.
        assert stalled[0].recv(65536) == b""
        for sock in stalled:
            sock.close()


def test_connections_past_a_busy_cap_get_the_overloaded_envelope(
        chain_database):
    service = _small_cap_service(chain_database)
    entered, release = threading.Semaphore(0), threading.Event()
    handle = service.handle

    def parked(document):                             # holds its slot busy
        entered.release()
        release.wait(timeout=30)
        return handle(document)

    service.handle = parked
    with ServiceServer(service) as server:
        busy = [ServiceClient(server.url, client_id=f"c{index}")
                for index in range(CAP)]
        answers = []
        threads = [threading.Thread(target=lambda client=client:
                                    answers.append(client.stats()))
                   for client in busy]
        for thread in threads:
            thread.start()
        for _ in range(CAP):
            assert entered.acquire(timeout=10)
        refused = []
        for _ in range(3):                            # cap + 3 connections
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as extra:
                extra.sendall(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
                with extra.makefile("rb") as stream:
                    refused.append(read_message(stream))
            assert len(_server_threads()) <= CAP + 1
        with ServiceClient(server.url) as client:
            with pytest.raises(ServiceCallError) as caught:
                client.stats()
        assert caught.value.code == "overloaded"
        assert caught.value.http_status == 429
        assert caught.value.details["retry_after_seconds"] == 0.5
        for (version, status, *_), headers, body in refused:
            assert (version, status) == ("HTTP/1.1", "429")
            assert headers["connection"] == "close"
            assert json.loads(body)["error"]["code"] == "overloaded"
        # Once the slots are idle again, a new client is served.
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert [answer["protocol_version"] for answer in answers] == [1] * CAP
        with ServiceClient(server.url) as client:
            assert client.stats()["protocol_version"] == 1
        for client in busy:
            client.close()


def test_a_request_leaves_the_client_in_one_sendall(chain_database):
    with ServiceServer(_service(chain_database)) as server, \
            ServiceClient(server.url) as client:
        handle = client.prepare("chain")
        client.execute(handle, "chain")
        profile = cProfile.Profile()
        profile.enable()
        for _ in range(20):
            client.execute(handle, "chain")
        profile.disable()
    calls = {function: counts[1]
             for function, counts in pstats.Stats(profile).stats.items()}
    sends = sum(count for (_, _, name), count in calls.items()
                if "sendall" in name)
    assert sends == 20
    assert not any("feedparser" in path for path, _, _ in calls)
