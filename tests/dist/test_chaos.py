"""Chaos tests: dead workers, duplicate/forged completions, restarts.

These drive the :class:`~repro.dist.Coordinator` and the wire protocol
directly (plus one real SIGKILL'd worker process) to prove the failure
story: leases held by dead workers expire and requeue, duplicate and
forged completions cannot corrupt the result set, a lost fleet fails
loud, and a coordinator restart re-simulates zero completed cells.
"""

import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bench import clear_cache
from repro.bench.runner import cell_key, cell_to_dict, evaluate_cell
from repro.dist import Coordinator, DistConfig, GridJob, dist_map, run_worker
from repro.dist.protocol import call
from repro.errors import (
    DistProtocolError,
    DistWorkersLost,
    ItemTimeoutError,
    ParallelMapError,
)
from repro.exec import ResultStore, evaluate_cells

BUDGET = 4
GRID = [(4, 32), (8, 32)]
SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def make_coord(cells=GRID, lease_ttl=0.5, store=None):
    todo = [cell_key("UMD-Cluster", p, n, BUDGET) for p, n in cells]
    job = GridJob(
        platform="UMD-Cluster",
        todo=todo,
        labels=[f"UMD-Cluster p{p} N{n}" for p, n in cells],
        lease_ttl=lease_ttl,
    )
    coord = Coordinator(job, DistConfig(), store=store)
    url = coord.start()
    return coord, url


def tick_until(coord, predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.05)
        coord.tick()


class TestLeaseExpiry:
    def test_abandoned_lease_requeues_and_grid_completes(self):
        coord, url = make_coord(lease_ttl=0.4)
        try:
            # a "worker" that leases one cell and is never heard from again
            grant = call(url, "/lease", {"worker": "zombie", "max_cells": 1})
            assert len(grant["cells"]) == 1
            tick_until(coord, lambda: coord.queue.counts()["requeues"] >= 1)
            # a live worker now finishes the whole grid, requeued cell too
            stats = run_worker(url, poll_s=0.05)
            assert stats.cells_done == len(GRID)
            assert coord.queue.finished
            assert all(c is not None for c in coord.outcome())
        finally:
            coord.stop()

    def test_sigkilled_worker_process_lease_requeues(self):
        """A real worker process is SIGKILL'd while renewing its lease."""
        coord, url = make_coord(lease_ttl=0.6)
        zombie = None
        try:
            script = (
                "import sys, time\n"
                "sys.path.insert(0, sys.argv[2])\n"
                "from repro.dist.protocol import call\n"
                "url = sys.argv[1]\n"
                "g = call(url, '/lease',"
                " {'worker': 'doomed', 'max_cells': 1})\n"
                "print('LEASED', flush=True)\n"
                "while True:\n"
                "    time.sleep(0.15)\n"
                "    call(url, '/renew',"
                " {'worker': 'doomed', 'lease': g['lease']}, retries=0)\n"
            )
            zombie = subprocess.Popen(
                [sys.executable, "-c", script, url, SRC],
                stdout=subprocess.PIPE, text=True,
            )
            assert zombie.stdout.readline().strip() == "LEASED"
            # renewals keep the lease alive well past the original TTL
            time.sleep(1.0)
            coord.tick()
            assert coord.queue.counts()["requeues"] == 0
            zombie.send_signal(signal.SIGKILL)
            zombie.wait(timeout=10)
            # ...until the worker dies: renewals stop, the lease expires
            tick_until(coord, lambda: coord.queue.counts()["requeues"] >= 1)
            stats = run_worker(url, poll_s=0.05)
            assert stats.cells_done == len(GRID)
            assert coord.queue.finished
        finally:
            if zombie is not None:
                if zombie.poll() is None:
                    zombie.kill()
                    zombie.wait(timeout=10)
                zombie.stdout.close()
            coord.stop()


class TestCompletionIntegrity:
    def test_duplicate_completion_is_idempotent(self):
        coord, url = make_coord(cells=[(4, 32)])
        try:
            grant = call(url, "/lease", {"worker": "w", "max_cells": 1})
            cell = evaluate_cell("UMD-Cluster", 4, 32, BUDGET)
            payload = {
                "worker": "w", "lease": grant["lease"],
                "cells": [{"index": 0, "cell": cell_to_dict(cell),
                           "evals": ""}],
            }
            assert call(url, "/complete", payload)["accepted"] == 1
            assert call(url, "/complete", payload)["accepted"] == 0
            counts = coord.queue.counts()
            assert counts["done"] == 1 and counts["duplicates"] == 1
            assert len(coord.outcome()) == 1
        finally:
            coord.stop()

    def test_completion_with_wrong_key_is_rejected(self):
        # a worker under a different ambient fault spec (or a stale
        # grid) computes a cell whose key disagrees: 400, not accepted
        coord, url = make_coord(cells=[(4, 48)])
        try:
            grant = call(url, "/lease", {"worker": "w", "max_cells": 1})
            wrong = evaluate_cell("UMD-Cluster", 4, 32, BUDGET)  # n=32 != 48
            with pytest.raises(DistProtocolError, match="mismatch"):
                call(url, "/complete", {
                    "worker": "w", "lease": grant["lease"],
                    "cells": [{"index": 0, "cell": cell_to_dict(wrong),
                               "evals": ""}],
                })
            assert coord.queue.counts()["done"] == 0
        finally:
            coord.stop()

    def test_unknown_path_and_status_endpoint(self):
        coord, url = make_coord()
        try:
            with pytest.raises(DistProtocolError):
                call(url, "/definitely-not-a-route")
            status = call(url, "/status")
            assert status["total"] == len(GRID)
            assert status["finished"] is False
        finally:
            coord.stop()


class TestFleetLoss:
    def test_fleet_dead_before_connecting_raises(self, monkeypatch):
        class DeadFleet:
            spawned = 2

            def reap(self):
                pass

            def alive(self):
                return 0

            def stderr_tail(self):
                return "\n  worker[0] stderr: boom"

            def terminate(self):
                pass

        monkeypatch.setattr(
            "repro.dist.coordinator.launch_workers",
            lambda url, spec, jobs, token=None: DeadFleet(),
        )
        todo = [cell_key("UMD-Cluster", p, n, BUDGET) for p, n in GRID]
        labels = [f"p{p} N{n}" for p, n in GRID]
        with pytest.raises(DistWorkersLost, match="before connecting"):
            dist_map(
                "UMD-Cluster", todo, labels, None,
                DistConfig(workers="local,local", poll_s=0.05),
            )

    def test_grid_deadline_fails_pending_as_timeouts(self):
        # no workers ever show up; the deadline converts every cell into
        # a recorded timeout failure (salvage path, not a hang)
        todo = [cell_key("UMD-Cluster", p, n, BUDGET) for p, n in GRID]
        labels = [f"p{p} N{n}" for p, n in GRID]
        with pytest.raises(ParallelMapError) as ei:
            dist_map(
                "UMD-Cluster", todo, labels, None,
                DistConfig(poll_s=0.05, timeout_s=0.3),
            )
        assert set(ei.value.failures) == {0, 1}
        assert all(
            isinstance(err, ItemTimeoutError)
            for err in ei.value.failures.values()
        )


class TestCoordinatorRestart:
    def test_restart_serves_only_missing_cells(self, tmp_path):
        """Kill the coordinator mid-grid; the restart re-simulates zero
        completed cells and serves only what the store is missing."""
        cells = GRID + [(4, 48)]
        store = ResultStore(tmp_path / "store")
        coord, url = make_coord(cells=cells, store=store)
        try:
            # one cell completes, then the coordinator "crashes"
            grant = call(url, "/lease", {"worker": "w", "max_cells": 1})
            index = grant["cells"][0]["index"]
            done = evaluate_cell(
                "UMD-Cluster", grant["cells"][0]["p"],
                grant["cells"][0]["n"], grant["cells"][0]["budget"],
            )
            call(url, "/complete", {
                "worker": "w", "lease": grant["lease"],
                "cells": [{"index": index, "cell": cell_to_dict(done),
                           "evals": ""}],
            })
        finally:
            coord.stop()
        assert len(store) == 1
        stored = {f.name: f.read_bytes()
                  for f in (tmp_path / "store").iterdir()}

        # restart: a fresh process would have an empty memo
        clear_cache()
        import repro.dist as dist_pkg

        served = []
        real = dist_pkg.dist_map

        def spy(platform, todo, *args, **kwargs):
            served.append(list(todo))
            return real(platform, todo, *args, **kwargs)

        from .test_dist_grid import dist_run

        dist_pkg.dist_map = spy
        try:
            results, raised = dist_run(cells, store=store)
        finally:
            dist_pkg.dist_map = real
        assert raised is None
        assert {(c.p, c.n) for c in results} == set(cells)
        # only the two missing cells went over the wire...
        assert len(served) == 1 and len(served[0]) == len(cells) - 1
        assert done.key() not in served[0]
        # ...and the pre-crash cell's file was not rewritten differently
        name = next(iter(stored))
        assert (tmp_path / "store" / name).read_bytes() == stored[name]
