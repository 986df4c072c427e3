"""Execution layer: worker-count resolution, deterministic sharding.

The contract under test is the one the benchmark drivers rely on:
``evaluate_cells(..., jobs=4)`` returns exactly what ``jobs=1`` returns
— same cells, same order, same numbers — and primes the in-process memo
so the drivers' serial reporting loops never re-tune.
"""

import pytest

from repro.bench import clear_cache, evaluate_cell
from repro.exec import ResultStore, default_jobs, evaluate_cells, parallel_map
from repro.obs.registry import scoped_registry

GRID = [(4, 32), (4, 48), (8, 32)]
BUDGET = 4


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def _square(x):
    return x * x  # module-level: must survive pickling into workers


class TestDefaultJobs:
    def test_serial_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert default_jobs(3) == 3

    def test_env_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert default_jobs() == 5

    @pytest.mark.parametrize("spelling", ["0", "auto"])
    def test_zero_and_auto_mean_all_cores(self, monkeypatch, spelling):
        monkeypatch.setenv("REPRO_JOBS", spelling)
        assert default_jobs() >= 1

    def test_floor_is_one(self):
        assert default_jobs(-3) == 1


class TestParallelMap:
    def test_input_order_serial(self):
        assert parallel_map(_square, [(3,), (1,), (2,)], jobs=1) == [9, 1, 4]

    def test_input_order_pooled(self):
        args = [(i,) for i in range(8)]
        assert parallel_map(_square, args, jobs=4) == [i * i for i in range(8)]

    def test_single_item_bypasses_pool(self):
        # A lambda is unpicklable; only the in-process path can run it.
        assert parallel_map(lambda x: x + 1, [(41,)], jobs=4) == [42]


class TestEvaluateCells:
    def _grid(self, jobs):
        clear_cache()
        return evaluate_cells(
            "UMD-Cluster", GRID, jobs=jobs, max_evaluations=BUDGET
        )

    def test_jobs4_identical_to_jobs1(self):
        serial = self._grid(1)
        pooled = self._grid(4)
        assert pooled == serial  # same cells, same order, same numbers

    @pytest.mark.parametrize("platform", ["UMD-Cluster", "Hopper"])
    def test_jobs4_identical_to_jobs1_both_platforms(self, platform):
        # The issue's canonical grid: two platforms x p in {4, 8} x one N.
        grid = [(4, 32), (8, 32)]
        clear_cache()
        serial = evaluate_cells(platform, grid, jobs=1, max_evaluations=BUDGET)
        clear_cache()
        pooled = evaluate_cells(platform, grid, jobs=4, max_evaluations=BUDGET)
        assert pooled == serial

    def test_results_in_input_order(self):
        cells = self._grid(2)
        assert [(c.p, c.n) for c in cells] == GRID
        assert all(c.budget == BUDGET for c in cells)

    def test_primes_the_memo(self):
        cells = self._grid(2)
        # The drivers' serial loops must hit the memo, not re-tune.
        again = evaluate_cell("UMD-Cluster", 4, 32, max_evaluations=BUDGET)
        assert again is cells[0]

    def test_duplicate_cells_evaluated_once(self):
        cells = evaluate_cells(
            "UMD-Cluster", [(4, 32), (4, 32)], jobs=1, max_evaluations=BUDGET
        )
        assert cells[0] is cells[1]

    def test_duplicate_uncached_cells_scheduled_once(self):
        # Regression: duplicate (p, n) inputs used to enqueue two pool
        # items; progress sees one event per item actually evaluated.
        events = []
        cells = evaluate_cells(
            "UMD-Cluster", [(4, 32), (4, 32), (4, 32)], jobs=1,
            max_evaluations=BUDGET,
            progress=lambda done, total, label: events.append((done, total)),
        )
        assert len(cells) == 3
        assert events == [(1, 1)]  # one item scheduled, not three

    def test_store_read_through(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        first = evaluate_cells(
            "UMD-Cluster", GRID, jobs=1, max_evaluations=BUDGET, store=store
        )
        assert len(store) == len(GRID)

        # A fresh process (memo cleared) must be served from the store
        # without a single pool evaluation.
        clear_cache()

        def no_work(fn, argtuples, jobs=None, labels=None, progress=None):
            assert list(argtuples) == []
            return []

        monkeypatch.setattr("repro.exec.pool.parallel_map", no_work)
        second = evaluate_cells(
            "UMD-Cluster", GRID, jobs=1, max_evaluations=BUDGET, store=store
        )
        assert second == first


class TestEvalStorePlumbing:
    """Workers ship their per-evaluation deltas back with the cells."""

    def _grid(self, jobs, evals):
        clear_cache()
        return evaluate_cells(
            "UMD-Cluster", [(4, 32), (8, 32)], jobs=jobs,
            max_evaluations=BUDGET, eval_store=evals,
        )

    def test_cold_run_fills_the_store(self):
        from repro.tuning import EvalStore

        evals = EvalStore()
        self._grid(1, evals)
        assert len(evals) > 0
        assert evals.new_records == len(evals)

    def test_warm_store_serves_worker_evaluations(self):
        from repro.tuning import EvalStore

        evals = EvalStore()
        first = self._grid(1, evals)
        produced = evals.new_records
        with scoped_registry() as reg:
            second = self._grid(1, evals)  # memo cleared: cells re-tune
        # Same experiment outcome (times, winners, suggestion counts)...
        assert [c.times for c in second] == [c.times for c in first]
        assert [c.params for c in second] == [c.params for c in first]
        assert [c.evaluations for c in second] == [c.evaluations for c in first]
        # ...but the warm session's tuned variants simulated nothing, so
        # their Table-4 tuning cost drops to zero (store hits are free).
        for cell in second:
            assert cell.tuning_times["NEW"] == 0.0
            assert cell.tuning_times["TH"] == 0.0
        assert reg.value("tune_store_hits_total") > 0  # answered from the store
        assert evals.new_records == produced  # and produced nothing new

    def test_pooled_identical_to_serial_with_store(self):
        from repro.tuning import EvalStore

        serial_store = EvalStore()
        serial = self._grid(1, serial_store)
        pooled_store = EvalStore()
        pooled = self._grid(4, pooled_store)
        assert pooled == serial
        # Same work shipped back regardless of scheduling.
        assert pooled_store.to_jsonl() == serial_store.to_jsonl()

    def test_run_grid_persists_the_store(self, tmp_path):
        from repro.exec import run_grid
        from repro.tuning import EvalStore

        path = tmp_path / "evals.jsonl"
        clear_cache()
        cells, evals = run_grid(
            "UMD-Cluster", [(4, 32)], jobs=1, max_evaluations=BUDGET,
            eval_store_path=path,
        )
        assert len(cells) == 1
        assert evals is not None and len(evals) > 0
        assert len(EvalStore.load(path)) == len(evals)

    def test_run_grid_without_path_returns_none_store(self):
        from repro.exec import run_grid

        clear_cache()
        cells, evals = run_grid(
            "UMD-Cluster", [(4, 32)], jobs=1, max_evaluations=BUDGET
        )
        assert len(cells) == 1 and evals is None
