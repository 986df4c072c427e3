"""Fault tolerance of the execution layer.

The contracts under test are ISSUE's acceptance checks: a raising item
is retried with exponential backoff and ends in an
:class:`~repro.errors.ItemFailedError` carrying its label and the
worker-side traceback; a timed-out item ends in
:class:`~repro.errors.ItemTimeoutError`; a dead worker triggers a pool
respawn that resubmits only unfinished items (then degrades to serial
when the pool keeps dying); and an interrupted grid salvages every
completed cell so a re-run resumes via store read-through, executing
only the missing ones.  Backoff timing is tested against a fake clock —
no wall-clock waits in the suite.
"""

import os
import time
import warnings
from collections import Counter
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.bench import clear_cache
from repro.core import ProblemShape, run_case
from repro.errors import (
    GridInterrupted,
    ItemFailedError,
    ItemTimeoutError,
    ParallelMapError,
)
from repro.exec import (
    CorruptStoreWarning,
    ExecPolicy,
    ResultStore,
    evaluate_cells,
    parallel_map,
)
from repro.machine import get_platform
from repro.obs.registry import scoped_registry
from repro.tuning.evalstore import EvalStore
from repro.obs.tracer import Tracer, current_tracer, tracing

BUDGET = 4
GRID = [(4, 32), (8, 32)]
BAD_CELL = (64, 8)  # p > N: evaluate_cell raises ParameterError


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


# -- module-level workers (pool items must pickle) --------------------------

def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _square_or_boom(x):
    if x < 0:
        raise ValueError(f"boom {x}")
    return x * x


def _flaky(counter_dir, x, fail_times):
    """Fail the first ``fail_times`` attempts, then succeed.

    The attempt counter is a file so it survives crossing process
    boundaries — retried pool items may land on a different worker.
    """
    path = os.path.join(counter_dir, f"attempts-{x}")
    with open(path, "a") as f:
        f.write("x\n")
    with open(path) as f:
        attempt = sum(1 for _ in f)
    if attempt <= fail_times:
        raise RuntimeError(f"flaky failure #{attempt}")
    return x * x


def _trace(name):
    """Record one span on the ambient tracer, if any."""
    tr = current_tracer()
    if tr is not None:
        tr.add_span("test", name, 0.0, tr.wall(), "wall")


def _traced_square(x):
    _trace("square")
    return x * x


def _simulate_then_flaky(counter_dir, p):
    """Simulate one run (counted) and trace one span, then fail the
    first attempt — the failed attempt did real work before it raised."""
    run_case("NEW", get_platform("UMD-Cluster"), ProblemShape(32, 32, 32, p))
    _trace("attempt")
    return _flaky(counter_dir, p, 1)


class FakeClock:
    """Deterministic clock + sleep recorder for backoff tests."""

    def __init__(self):
        self.t = 0.0
        self.sleeps = []

    def clock(self):
        return self.t

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.t += seconds


def _policy(clk, **kw):
    kw.setdefault("retries", 2)
    kw.setdefault("backoff_s", 0.25)
    kw.setdefault("backoff_factor", 2.0)
    return ExecPolicy(clock=clk.clock, sleep=clk.sleep, **kw)


class TestBackoff:
    def test_exponential_schedule(self):
        policy = ExecPolicy(backoff_s=0.25, backoff_factor=2.0,
                            max_backoff_s=10.0)
        assert policy.backoff(1) == 0.25
        assert policy.backoff(2) == 0.5
        assert policy.backoff(3) == 1.0

    def test_capped_at_max(self):
        policy = ExecPolicy(backoff_s=0.25, backoff_factor=2.0,
                            max_backoff_s=10.0)
        assert policy.backoff(20) == 10.0

    def test_serial_retry_sleeps_the_backoff_sequence(self):
        clk = FakeClock()
        attempts = []

        def fails_twice(x):
            attempts.append(x)
            if len(attempts) <= 2:
                raise RuntimeError("transient")
            return x * x

        out = parallel_map(fails_twice, [(3,)], jobs=1,
                           policy=_policy(clk, retries=3))
        assert out == [9]
        assert len(attempts) == 3
        assert clk.sleeps == [0.25, 0.5]  # backoff(1), backoff(2)


class TestRetriesExhausted:
    def test_failure_carries_label_and_traceback(self):
        clk = FakeClock()
        with scoped_registry() as reg:
            with pytest.raises(ParallelMapError) as ei:
                parallel_map(_boom, [(7,)], jobs=1, labels=["the-bad-one"],
                             policy=_policy(clk, retries=2))
        err = ei.value
        assert err.results == [None]
        failure = err.failures[0]
        assert isinstance(failure, ItemFailedError)
        assert not isinstance(failure, ItemTimeoutError)
        assert failure.label == "the-bad-one"
        assert failure.attempts == 3  # first try + 2 retries
        assert "ValueError: boom 7" in failure.cause
        assert "Traceback" in failure.cause
        assert reg.value("pool_item_errors_total") == 3
        assert reg.value("pool_retries_total") == 2

    def test_good_items_survive_a_bad_sibling(self):
        clk = FakeClock()
        with pytest.raises(ParallelMapError) as ei:
            parallel_map(_square_or_boom, [(2,), (-1,), (3,)], jobs=1,
                         policy=_policy(clk, retries=1))
        err = ei.value
        assert err.results == [4, None, 9]  # partial results salvageable
        assert list(err.failures) == [1]

    def test_pool_path_reports_worker_traceback(self):
        with pytest.raises(ParallelMapError) as ei:
            parallel_map(_square_or_boom, [(2,), (-1,)], jobs=2,
                         policy=ExecPolicy(retries=1, backoff_s=0.0))
        failure = ei.value.failures[1]
        assert failure.attempts == 2
        assert "ValueError: boom -1" in failure.cause

    def test_flaky_worker_recovers_on_the_pool_path(self, tmp_path):
        args = [(str(tmp_path), i, 2) for i in range(3)]
        with scoped_registry() as reg:
            out = parallel_map(_flaky, args, jobs=2,
                               policy=ExecPolicy(retries=3, backoff_s=0.0))
        assert out == [0, 1, 4]
        assert reg.value("pool_item_errors_total") == 6  # 2 failures x 3
        assert reg.value("pool_retries_total") == 6


class TestTimeouts:
    def test_hung_worker_times_out(self):
        # two items: a single item bypasses the pool, and timeouts are
        # only enforceable on the pool path
        with scoped_registry() as reg:
            with pytest.raises(ParallelMapError) as ei:
                parallel_map(
                    _square_or_hang, [(-1,), (3,)], jobs=2,
                    labels=["hung", "quick"],
                    policy=ExecPolicy(timeout_s=0.2, retries=1,
                                      backoff_s=0.0),
                )
        err = ei.value
        assert err.results == [None, 9]
        failure = err.failures[0]
        assert isinstance(failure, ItemTimeoutError)
        assert failure.label == "hung"
        assert failure.attempts == 2
        assert "timeout" in failure.cause
        assert reg.value("pool_timeouts_total") == 2

    def test_quick_siblings_finish_despite_a_hung_item(self):
        with pytest.raises(ParallelMapError) as ei:
            parallel_map(
                _square_or_hang, [(3,), (-1,)], jobs=2,
                policy=ExecPolicy(timeout_s=0.3, retries=0),
            )
        err = ei.value
        assert err.results == [9, None]
        assert isinstance(err.failures[1], ItemTimeoutError)


def _square_or_hang(x):
    if x < 0:
        time.sleep(60)
    return x * x


class TestPoolRecovery:
    def test_killed_worker_respawns_and_completes(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_CHAOS", f"kill-once:[1]@{tmp_path}")
        args = [(i,) for i in range(4)]
        with scoped_registry() as reg:
            out = parallel_map(_square, args, jobs=2)
        assert out == [0, 1, 4, 9]  # the killed item was resubmitted
        assert reg.value("pool_respawns_total") == 1
        assert reg.value("pool_serial_fallbacks_total") is None
        assert (tmp_path / "chaos-killed").exists()  # chaos fired exactly once

    def test_crashed_grid_matches_fault_free_serial(self, tmp_path,
                                                    monkeypatch):
        # ISSUE acceptance: a grid with an injected worker crash
        # completes after retry with results byte-identical to a
        # fault-free serial run.
        serial = evaluate_cells("UMD-Cluster", GRID, jobs=1,
                                max_evaluations=BUDGET)
        clear_cache()
        monkeypatch.setenv("REPRO_EXEC_CHAOS", f"kill-once:@{tmp_path}")
        crashed = evaluate_cells("UMD-Cluster", GRID, jobs=2,
                                 max_evaluations=BUDGET)
        assert (tmp_path / "chaos-killed").exists()
        assert crashed == serial  # same cells, same order, same numbers

    def test_exhausted_respawns_degrade_to_serial(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_CHAOS", f"kill-once:[0]@{tmp_path}")
        with scoped_registry() as reg:
            out = parallel_map(_square, [(i,) for i in range(3)], jobs=2,
                               policy=ExecPolicy(pool_respawns=0))
        assert out == [0, 1, 4]
        assert reg.value("pool_respawns_total") == 1
        assert reg.value("pool_serial_fallbacks_total") == 1

    @pytest.mark.parametrize("k", [1, 3])
    def test_broken_pool_during_initial_submits_respawns(self, k,
                                                         monkeypatch):
        # The first pool breaks on its k-th submit, before every item is
        # even queued: the unsubmitted items must ride the respawn too.
        import repro.exec.pool as pool_mod

        class BreaksOnSubmit(pool_mod.ProcessPoolExecutor):
            pools = 0

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                BreaksOnSubmit.pools += 1
                self.first = BreaksOnSubmit.pools == 1
                self.submits = 0

            def submit(self, *args, **kwargs):
                self.submits += 1
                if self.first and self.submits == k:
                    raise BrokenProcessPool("injected on submit")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", BreaksOnSubmit)
        args = [(i,) for i in range(6)]
        with scoped_registry() as reg:
            out = parallel_map(_square, args, jobs=2)
        assert out == [x * x for (x,) in args]
        assert BreaksOnSubmit.pools == 2
        assert reg.value("pool_respawns_total") == 1
        assert reg.value("pool_serial_fallbacks_total") is None


def _grid_counts(reg) -> dict:
    """Every counter sample and histogram sample count in ``reg``.

    ``pool_items_total`` is summed over its ``mode`` label (serial vs
    pool is the one intended difference); histograms are compared by
    sample count, since their values (``pool_item_seconds``) are wall
    clock.
    """
    out: dict = {}
    for name, rec in reg.snapshot().items():
        if rec["kind"] == "gauge":
            continue
        for key, value in rec["samples"]:
            labels = tuple(tuple(pair) for pair in key
                           if not (name == "pool_items_total"
                                   and pair[0] == "mode"))
            n = len(value) if isinstance(value, list) else value
            out[(name, labels)] = out.get((name, labels), 0) + n
    return out


def _family_total(counts: dict, name: str) -> float:
    return sum(v for (n, _labels), v in counts.items() if n == name)


class TestSerialPoolParity:
    """The serial fallback emits the same telemetry as the pool path —
    same progress events, same counters, same span attrs — and pool
    items ship their registry counts, so a grid leaves the same counts
    whether its cells ran in-process or on worker processes."""

    def _telemetry(self, jobs):
        events = []
        with scoped_registry() as reg, \
                tracing(Tracer(rank_spans=False)) as tr:
            parallel_map(_square, [(1,), (2,), (3,)], jobs=jobs,
                         progress=lambda d, t, lbl: events.append((d, t)))
        spans = [s for s in tr.spans if s.track == "pool"]
        return reg, spans, events

    def test_same_progress_and_counters(self):
        reg_s, spans_s, events_s = self._telemetry(jobs=1)
        reg_p, spans_p, events_p = self._telemetry(jobs=2)
        assert events_s == events_p == [(1, 3), (2, 3), (3, 3)]
        assert reg_s.total("pool_items_total") == 3
        assert reg_p.total("pool_items_total") == 3
        assert len(reg_s.value("pool_item_seconds")) == 3
        assert len(reg_p.value("pool_item_seconds")) == 3

    def test_same_span_attrs_except_mode(self):
        _, spans_s, _ = self._telemetry(jobs=1)
        _, spans_p, _ = self._telemetry(jobs=2)
        assert len(spans_s) == len(spans_p) == 3
        for span in spans_s + spans_p:
            assert set(span.attrs) == {"mode", "worker_s"}
            assert span.clock == "wall"
        assert {s.attrs["mode"] for s in spans_s} == {"serial"}
        assert {s.attrs["mode"] for s in spans_p} == {"pool"}


    @staticmethod
    def _grid_counts_for(jobs, warm_jsonl=None):
        clear_cache()
        evals = (None if warm_jsonl is None
                 else EvalStore.from_jsonl(warm_jsonl))
        with scoped_registry() as reg:
            evaluate_cells("UMD-Cluster", GRID + [(4, 64)], jobs=jobs,
                           max_evaluations=BUDGET + 2, eval_store=evals)
        return _grid_counts(reg)

    @staticmethod
    def _span_names(tr) -> Counter:
        return Counter((s.track, s.name) for s in tr.spans)

    def test_grid_spans_match(self):
        """A traced grid holds the same spans, name for name, whether
        its cells ran in-process or on worker processes."""
        names = []
        for jobs in (1, 2):
            clear_cache()
            with tracing(Tracer(rank_spans=False)) as tr:
                evaluate_cells("UMD-Cluster", [(4, 32), (4, 64)], jobs=jobs,
                               max_evaluations=BUDGET)
            names.append(self._span_names(tr))
        assert sum(n for (track, _), n in names[0].items()
                   if track != "pool") > 0
        assert names[1] == names[0]

    def test_untraced_items_ship_no_spans(self):
        from repro.exec.pool import _invoke

        value, cause, _wisdom, _counts, spans, _s = _invoke(_traced_square, (3,))
        assert (value, cause, spans) == (9, None, [])
        traced = _invoke(_traced_square, (3,), "", False)[4]
        assert [rec["name"] for rec in traced] == ["square"]

    def test_retried_items_count_and_trace_every_attempt(self, tmp_path):
        """Items that fail their first attempt after simulating: the
        failed attempts' counts and spans come home from the pool as
        the serial path records them in place."""
        seen = []
        for jobs in (1, 2):
            counter_dir = tmp_path / f"jobs{jobs}"
            counter_dir.mkdir()
            args = [(str(counter_dir), p) for p in (2, 4)]
            with scoped_registry() as reg, \
                    tracing(Tracer(rank_spans=False)) as tr:
                out = parallel_map(_simulate_then_flaky, args, jobs=jobs,
                                   policy=ExecPolicy(retries=1,
                                                     backoff_s=0.0))
            assert out == [4, 16]
            seen.append((_grid_counts(reg), self._span_names(tr)))
        (serial, serial_spans), (pooled, pooled_spans) = seen
        assert _family_total(serial, "sim_runs_total") == 4  # 2 per item
        assert _family_total(serial, "pool_retries_total") == 2
        assert serial_spans[("test", "attempt")] == 4
        assert pooled == serial
        assert pooled_spans == serial_spans

    @pytest.mark.parametrize("with_store", [False, True])
    def test_grid_counts_match(self, with_store):
        warm_jsonl = None
        if with_store:
            # a store filled at a smaller budget answers the first
            # evaluations of every cell; the rest simulate
            warm = EvalStore()
            evaluate_cells("UMD-Cluster", GRID + [(4, 64)], jobs=1,
                           max_evaluations=BUDGET - 2, eval_store=warm)
            warm_jsonl = warm.to_jsonl()
        serial = self._grid_counts_for(1, warm_jsonl)
        assert _family_total(serial, "sim_runs_total") > 0
        assert (_family_total(serial, "tune_store_hits_total") > 0) == with_store
        assert self._grid_counts_for(2, warm_jsonl) == serial


class TestGridSalvage:
    def test_interrupt_carries_completed_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(GridInterrupted) as ei:
            evaluate_cells(
                "UMD-Cluster", GRID + [BAD_CELL], jobs=1,
                max_evaluations=BUDGET, store=store,
                policy=ExecPolicy(retries=0, backoff_s=0.0),
            )
        err = ei.value
        assert {(c.p, c.n) for c in err.completed} == set(GRID)
        assert set(err.failures) == {BAD_CELL}
        assert isinstance(err.failures[BAD_CELL], ItemFailedError)
        assert "ParameterError" in err.failures[BAD_CELL].cause
        # the salvaged cells were flushed to the store before raising
        assert len(store) == len(GRID)

    def test_rerun_resumes_via_read_through(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        with pytest.raises(GridInterrupted) as ei:
            evaluate_cells(
                "UMD-Cluster", GRID + [BAD_CELL], jobs=1,
                max_evaluations=BUDGET, store=store,
                policy=ExecPolicy(retries=0, backoff_s=0.0),
            )
        salvaged = {(c.p, c.n): c for c in ei.value.completed}
        clear_cache()  # a fresh process: only the store survives

        submitted = []
        import repro.exec.pool as pool_mod
        real = pool_mod.parallel_map

        def spy(fn, argtuples, jobs=None, labels=None, progress=None, **kw):
            submitted.extend(argtuples)
            return real(fn, argtuples, jobs, labels=labels,
                        progress=progress, **kw)

        monkeypatch.setattr("repro.exec.pool.parallel_map", spy)
        again = evaluate_cells(
            "UMD-Cluster", GRID, jobs=1, max_evaluations=BUDGET, store=store
        )
        assert submitted == []  # zero re-simulated cells: pure read-through
        assert [(c.p, c.n) for c in again] == GRID
        for cell in again:
            assert cell == salvaged[(cell.p, cell.n)]


class TestSalvageDedupe:
    """An interrupted resume separates *newly* salvaged cells from ones
    that were already on disk — the salvage message must not re-claim
    old work as saved."""

    def _interrupt(self, cells, store):
        with pytest.raises(GridInterrupted) as ei:
            evaluate_cells(
                "UMD-Cluster", cells, jobs=1, max_evaluations=BUDGET,
                store=store, policy=ExecPolicy(retries=0, backoff_s=0.0),
            )
        return ei.value

    def test_already_stored_cells_are_not_salvaged_again(self, tmp_path):
        store = ResultStore(tmp_path)
        evaluate_cells("UMD-Cluster", GRID, jobs=1,
                       max_evaluations=BUDGET, store=store)
        clear_cache()
        extra = (4, 48)
        err = self._interrupt(GRID + [extra, BAD_CELL], store)
        # completed reports everything available; salvaged only the news
        assert {(c.p, c.n) for c in err.completed} == set(GRID) | {extra}
        assert {(c.p, c.n) for c in err.salvaged} == {extra}
        assert "1 newly completed cell(s) salvaged" in str(err)
        assert "(2 already stored)" in str(err)
        assert len(store) == len(GRID) + 1

    def test_memo_hits_are_flushed_and_count_as_salvaged(self, tmp_path):
        # warm the in-process memo only; the store starts empty, so the
        # interrupt flush must persist memo hits too
        evaluate_cells("UMD-Cluster", GRID, jobs=1, max_evaluations=BUDGET)
        store = ResultStore(tmp_path)
        err = self._interrupt(GRID + [BAD_CELL], store)
        assert {(c.p, c.n) for c in err.salvaged} == set(GRID)
        assert len(store) == len(GRID)
        assert "already stored" not in str(err)

    def test_salvaged_defaults_to_completed(self):
        sentinel = [object()]
        err = GridInterrupted(sentinel, {})
        assert err.salvaged == sentinel


class TestStoreCorruption:
    """Satellite 2: a truncated or foreign store file is a warned miss."""

    def _filled_store(self, tmp_path):
        store = ResultStore(tmp_path)
        cells = evaluate_cells(
            "UMD-Cluster", GRID, jobs=1, max_evaluations=BUDGET, store=store
        )
        return store, cells

    def test_truncated_file_is_a_warned_miss(self, tmp_path):
        store, cells = self._filled_store(tmp_path)
        path = store.path_for(*cells[0].key())
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # killed mid-record
        with pytest.warns(CorruptStoreWarning, match="corrupt"):
            assert store.get(*cells[0].key()) is None
        # the intact sibling is unaffected
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get(*cells[1].key()) == cells[1]

    def test_grid_recomputes_through_the_corruption(self, tmp_path):
        store, cells = self._filled_store(tmp_path)
        path = store.path_for(*cells[0].key())
        path.write_text(path.read_text()[:40])
        clear_cache()
        with pytest.warns(CorruptStoreWarning):
            again = evaluate_cells(
                "UMD-Cluster", GRID, jobs=1, max_evaluations=BUDGET,
                store=store,
            )
        assert again == cells  # deterministic recompute, same numbers
        # and the recompute repaired the file on disk
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get(*cells[0].key()) == cells[0]

    def test_mismatched_name_is_a_warned_miss(self, tmp_path):
        store, cells = self._filled_store(tmp_path)
        a = store.path_for(*cells[0].key())
        b = store.path_for(*cells[1].key())
        b.write_text(a.read_text())  # file claims a different cell
        with pytest.warns(CorruptStoreWarning, match="does not match"):
            assert store.get(*cells[1].key()) is None

    def test_cells_listing_skips_corrupt_files(self, tmp_path):
        store, cells = self._filled_store(tmp_path)
        path = store.path_for(*cells[0].key())
        path.write_text("{not json")
        with pytest.warns(CorruptStoreWarning):
            readable = store.cells()
        assert [c.key() for c in readable] == [cells[1].key()]
