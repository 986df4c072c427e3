"""Both service planes keep up with bursts and kept-alive clients.

With socketserver's default listen backlog of 5, a burst of clients
overflows the accept queue and a dropped connection waits out the
kernel's 1 s SYN retransmit.  16 clients released together on
``/healthz`` must all be answered well inside that second.

Clients keep one connection per thread alive
(:mod:`repro.dist.protocol`), so the planes must answer back-to-back
requests on one socket without Nagle stalls, close the connection after
an error reply that left a request body unread, stop answering once the
server is stopped, and a finished client thread must close its sockets.
"""

import gc
import threading
import time
import urllib.request
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bench import clear_cache
from repro.bench.runner import cell_key
from repro.dist import Coordinator, DistConfig, GridJob, close_connections
from repro.dist.protocol import call
from repro.errors import DistProtocolError, DistUnreachableError
from repro.serve import PlanServer, ServeConfig
from repro.util.httpd import ServiceHTTPServer

CLIENTS = 16
TOKEN = "s3cret"


def _plan_server(tmp_path, token=None):
    srv = PlanServer(ServeConfig(root=str(tmp_path / "store"), default_budget=4,
                                 token=token))
    return srv.start(), srv.stop


def _coordinator(tmp_path, token=None):
    del tmp_path
    job = GridJob(platform="UMD-Cluster", todo=[cell_key("UMD-Cluster", 4, 32, 4)],
                  labels=["p4 N32"], lease_ttl=5.0)
    coord = Coordinator(job, DistConfig(token=token))
    return coord.start(), coord.stop


PLANES = pytest.mark.parametrize("start", [_plan_server, _coordinator],
                                 ids=["serve", "coordinator"])


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


@PLANES
def test_burst_of_healthz_clients_all_answered_fast(tmp_path, start):
    url, stop = start(tmp_path)
    barrier = threading.Barrier(CLIENTS, timeout=10)

    def client(_k: int) -> float:
        barrier.wait()
        t0 = time.perf_counter()
        with urllib.request.urlopen(url + "/healthz", timeout=10) as resp:
            assert resp.status == 200
            resp.read()
        return time.perf_counter() - t0

    try:
        for _round in range(3):
            with ThreadPoolExecutor(CLIENTS) as pool:
                took = list(pool.map(client, range(CLIENTS)))
            assert max(took) < 0.5, sorted(took)
    finally:
        stop()


@pytest.fixture
def accepted(monkeypatch):
    """Connections the service planes accept, counted."""
    count = [0]
    original = ServiceHTTPServer.process_request

    def counting(self, request, client_address):
        count[0] += 1
        original(self, request, client_address)

    monkeypatch.setattr(ServiceHTTPServer, "process_request", counting)
    close_connections()
    yield count
    close_connections()


@PLANES
def test_sequential_calls_share_one_fast_connection(tmp_path, start, accepted):
    """Without TCP_NODELAY on the handler socket each kept-alive reply's
    body waits for the client's delayed ACK: ~40 ms a request."""
    url, stop = start(tmp_path)
    try:
        t0 = time.perf_counter()
        for _ in range(20):
            assert call(url, "/status")
        took = time.perf_counter() - t0
        assert accepted[0] == 1
        assert took < 0.5, took
        close_connections()
        assert call(url, "/status")
        assert accepted[0] == 2
    finally:
        stop()


@PLANES
def test_rejected_post_leaves_no_body_behind(tmp_path, start, accepted):
    """A 401 answers before reading the POST body; the connection must
    close with it, or the unread body prefixes the next request."""
    url, stop = start(tmp_path, token=TOKEN)
    path, body = (("/plan", {"platform": "UMD-Cluster", "p": 4, "n": 32})
                  if start is _plan_server
                  else ("/lease", {"worker": "w", "max_cells": 1}))
    try:
        with pytest.raises(DistProtocolError, match="401"):
            call(url, path, body)
        code, reply = call(url, path, body, token=TOKEN, with_status=True)
        assert code in (200, 202)
        assert "error" not in reply
    finally:
        stop()


@PLANES
def test_stopped_server_never_answers_a_kept_alive_client(tmp_path, start,
                                                          accepted):
    url, stop = start(tmp_path)
    assert call(url, "/status")
    stop()
    with pytest.raises(DistUnreachableError):
        call(url, "/status", retries=1, backoff_s=0.01, sleep=lambda s: None)


@PLANES
def test_finished_client_thread_closes_its_sockets(tmp_path, start):
    url, stop = start(tmp_path)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            client = threading.Thread(target=call, args=(url, "/status"))
            client.start()
            client.join()
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == []
    finally:
        stop()
