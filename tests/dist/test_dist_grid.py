"""Distributed dispatch produces byte-identical stores to local runs.

The acceptance contract: ``dispatch="dist"`` (a coordinator serving
cells to ``repro worker`` processes) must yield a ``ResultStore`` and
``EvalStore`` byte-identical to the same grid evaluated with the local
pool, including under a ``--faults`` spec — plus the same
salvage-on-failure behavior.  Most tests here run the worker loop
in-process (a thread calling :func:`repro.dist.run_worker`) so they stay
fast and deterministic; one end-to-end test goes through real spawned
worker subprocesses.
"""

import queue as queue_mod
import threading
from pathlib import Path

import pytest

from repro.bench import clear_cache
from repro.bench.runner import cell_to_dict
from repro.dist import DistConfig, run_worker
from repro.errors import GridInterrupted, ItemFailedError
from repro.exec import ExecPolicy, ResultStore, evaluate_cells
from repro.faults import injected_faults, parse_faults
from repro.obs.registry import scoped_registry
from repro.tuning.evalstore import EvalStore

BUDGET = 4
GRID = [(4, 32), (8, 32)]
BAD_CELL = (64, 8)  # p > N: evaluate_cell raises ParameterError
FAULTS = "straggler:rank=1,slow=1.5;seed:7"

#: no-backoff policy so failing cells don't sleep out retries
FAST_FAIL = ExecPolicy(retries=0, backoff_s=0.0)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def dist_run(cells, store=None, eval_store=None, worker_jobs=1,
             n_workers=1, policy=FAST_FAIL, faults=None, batch=1):
    """Evaluate ``cells`` via dispatch="dist" with in-process workers.

    The coordinator's ``announce`` hands the URL to ``n_workers``
    threads running the real worker loop (lease -> evaluate -> report
    over HTTP); returns (results_or_exc, raised_flag).
    """
    urls: queue_mod.Queue = queue_mod.Queue()
    seen_urls = []

    def fan_url(url):
        seen_urls.append(url)
        for _ in range(n_workers):
            urls.put(url)

    def worker_main():
        run_worker(urls.get(timeout=30), jobs=worker_jobs, poll_s=0.02,
                   policy=policy)

    threads = [
        threading.Thread(target=worker_main, daemon=True)
        for _ in range(n_workers)
    ]
    for t in threads:
        t.start()
    cfg = DistConfig(poll_s=0.02, lease_ttl=10.0, announce=fan_url,
                     batch=batch)
    ctx = injected_faults(faults) if faults else None
    try:
        if ctx:
            ctx.__enter__()
        try:
            results = evaluate_cells(
                "UMD-Cluster", cells, max_evaluations=BUDGET, store=store,
                eval_store=eval_store, dispatch="dist", dist=cfg,
            )
            raised = None
        except GridInterrupted as exc:
            results, raised = None, exc
        for t in threads:
            t.join(timeout=30)
    finally:
        if ctx:
            ctx.__exit__(None, None, None)
    assert seen_urls, "coordinator never announced its URL"
    assert not any(t.is_alive() for t in threads)
    return results, raised


def local_run(cells, store=None, eval_store=None, jobs=1, faults=None):
    if faults:
        with injected_faults(faults):
            return evaluate_cells(
                "UMD-Cluster", cells, jobs=jobs, max_evaluations=BUDGET,
                store=store, eval_store=eval_store,
            )
    return evaluate_cells(
        "UMD-Cluster", cells, jobs=jobs, max_evaluations=BUDGET,
        store=store, eval_store=eval_store,
    )


def store_bytes(path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in Path(path).iterdir()}


class TestByteIdentity:
    def test_dist_matches_local_stores_and_results(self, tmp_path):
        local_store = ResultStore(tmp_path / "local")
        local_evals = EvalStore()
        expected = local_run(GRID, local_store, local_evals)

        clear_cache()
        dist_store = ResultStore(tmp_path / "dist")
        dist_evals = EvalStore()
        got, raised = dist_run(GRID, dist_store, dist_evals)

        assert raised is None
        assert [cell_to_dict(c) for c in got] == [
            cell_to_dict(c) for c in expected
        ]
        assert store_bytes(tmp_path / "dist") == store_bytes(tmp_path / "local")
        assert dist_evals.to_jsonl() == local_evals.to_jsonl()

    def test_dist_under_faults_matches_local(self, tmp_path):
        spec = parse_faults(FAULTS)
        local_store = ResultStore(tmp_path / "local")
        local_evals = EvalStore()
        expected = local_run(GRID, local_store, local_evals, faults=spec)

        clear_cache()
        dist_store = ResultStore(tmp_path / "dist")
        dist_evals = EvalStore()
        got, raised = dist_run(GRID, dist_store, dist_evals, faults=spec)

        assert raised is None
        assert all(c.faults == spec.key() for c in got)
        assert [cell_to_dict(c) for c in got] == [
            cell_to_dict(c) for c in expected
        ]
        assert store_bytes(tmp_path / "dist") == store_bytes(tmp_path / "local")
        assert dist_evals.to_jsonl() == local_evals.to_jsonl()
        # every eval-store record is scoped to the fault spec
        assert dist_evals.to_jsonl().count(f"|faults={spec.key()}") == len(
            dist_evals
        )

    def test_two_workers_match_one(self, tmp_path):
        one_store = ResultStore(tmp_path / "one")
        _, raised = dist_run(GRID + [(4, 48)], one_store, n_workers=1)
        assert raised is None
        clear_cache()
        two_store = ResultStore(tmp_path / "two")
        _, raised = dist_run(GRID + [(4, 48)], two_store, n_workers=2)
        assert raised is None
        assert store_bytes(tmp_path / "two") == store_bytes(tmp_path / "one")


class TestStoreHitCounting:
    """Each count reaches the grid's registry exactly once: a worker
    ships the counts of the cells it ran in-thread, and of those its
    pool's processes ran, in its registry delta, so a distributed run
    counts what the same run counts serially in-process."""

    @staticmethod
    def tuning_counts(run) -> list[dict]:
        """``sim_*``/``tune_*`` counter samples of ``run(evals)`` on an
        empty eval store (cold: every evaluation simulates), then again
        on the store that run filled (warm: every one is a store hit)."""
        evals = EvalStore()
        out = []
        for _ in ("cold", "warm"):
            clear_cache()
            with scoped_registry() as reg:
                run(evals)
            out.append({
                (name, tuple(tuple(pair) for pair in key)): value
                for name, rec in reg.snapshot().items()
                if name.startswith(("sim_", "tune_"))
                for key, value in rec["samples"]
            })
        clear_cache()
        return out

    @pytest.mark.parametrize("worker_jobs", [1, 2])
    def test_registry_counts_each_hit_once(self, worker_jobs):
        serial = self.tuning_counts(
            lambda evals: local_run(GRID, eval_store=evals))
        cold, warm = serial
        assert any(name == "sim_runs_total" and v > 0
                   for (name, _), v in cold.items())
        assert warm[("tune_store_hits_total", ())] > 0
        assert self.tuning_counts(lambda evals: dist_run(
            GRID, eval_store=evals, worker_jobs=worker_jobs, batch=2)) == serial


class TestFailuresAndSalvage:
    def test_failing_cell_salvages_completed_ones(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        _, raised = dist_run(GRID + [BAD_CELL], store)
        assert isinstance(raised, GridInterrupted)
        assert set(raised.failures) == {BAD_CELL}
        assert isinstance(raised.failures[BAD_CELL], ItemFailedError)
        assert "ParameterError" in raised.failures[BAD_CELL].cause
        assert {(c.p, c.n) for c in raised.completed} == set(GRID)
        assert {(c.p, c.n) for c in raised.salvaged} == set(GRID)
        assert len(store) == len(GRID)

    def test_resume_after_interrupt_runs_only_missing_cells(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        _, raised = dist_run(GRID + [BAD_CELL], store)
        assert raised is not None
        clear_cache()
        # resume without the bad cell: everything comes from the store,
        # no coordinator is even started (dist_map must not run)
        import repro.dist as dist_pkg

        def explode(*a, **k):  # pragma: no cover - would fail the test
            raise AssertionError("dist_map called despite warm store")

        orig = dist_pkg.dist_map
        dist_pkg.dist_map = explode
        try:
            results = evaluate_cells(
                "UMD-Cluster", GRID, max_evaluations=BUDGET, store=store,
                dispatch="dist", dist=DistConfig(),
            )
        finally:
            dist_pkg.dist_map = orig
        assert {(c.p, c.n) for c in results} == set(GRID)


class TestDispatchSeam:
    def test_unknown_dispatch_rejected(self):
        with pytest.raises(ValueError, match="dispatch"):
            evaluate_cells("UMD-Cluster", GRID, dispatch="carrier-pigeon")

    def test_local_dispatch_is_default_and_unchanged(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        a = local_run(GRID, store)
        clear_cache()
        b = evaluate_cells(
            "UMD-Cluster", GRID, max_evaluations=BUDGET,
            store=store, dispatch="local",
        )
        assert [cell_to_dict(c) for c in a] == [cell_to_dict(c) for c in b]


class TestSubprocessWorkers:
    """One true end-to-end run: coordinator + spawned worker processes."""

    def test_spawned_local_fleet_matches_local_run(self, tmp_path):
        local_store = ResultStore(tmp_path / "local")
        local_evals = EvalStore()
        local_run(GRID, local_store, local_evals, jobs=2)

        clear_cache()
        dist_store = ResultStore(tmp_path / "dist")
        dist_evals = EvalStore()
        cfg = DistConfig(workers="local,local", poll_s=0.05, lease_ttl=15.0)
        results = evaluate_cells(
            "UMD-Cluster", GRID, max_evaluations=BUDGET, store=dist_store,
            eval_store=dist_evals, dispatch="dist", dist=cfg,
        )
        assert {(c.p, c.n) for c in results} == set(GRID)
        assert store_bytes(tmp_path / "dist") == store_bytes(tmp_path / "local")
        assert dist_evals.to_jsonl() == local_evals.to_jsonl()
