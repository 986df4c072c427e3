"""Both service planes keep up with a burst of simultaneous connects.

With socketserver's default listen backlog of 5, a burst of clients
overflows the accept queue and a dropped connection waits out the
kernel's 1 s SYN retransmit.  16 clients released together on
``/healthz`` must all be answered well inside that second.
"""

import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bench import clear_cache
from repro.bench.runner import cell_key
from repro.dist import Coordinator, DistConfig, GridJob
from repro.serve import PlanServer, ServeConfig

CLIENTS = 16


def _plan_server(tmp_path):
    srv = PlanServer(ServeConfig(root=str(tmp_path / "store"), default_budget=4))
    return srv.start(), srv.stop


def _coordinator(tmp_path):
    del tmp_path
    job = GridJob(platform="UMD-Cluster", todo=[cell_key("UMD-Cluster", 4, 32, 4)],
                  labels=["p4 N32"], lease_ttl=5.0)
    coord = Coordinator(job, DistConfig())
    return coord.start(), coord.stop


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


@pytest.mark.parametrize("start", [_plan_server, _coordinator],
                         ids=["serve", "coordinator"])
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
