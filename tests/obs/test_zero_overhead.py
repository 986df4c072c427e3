"""Tracing must be free when disabled and inert when enabled.

The acceptance bar (tier 1): with tracing disabled nothing changed at
all, and — stronger — *enabling* a tracer cannot perturb the simulation
either, because instrumentation only reads virtual clocks.  Virtual
times, per-rank event timelines, and per-run ``SchedStats`` must be
bit-identical with and without an installed tracer.
"""

from contextlib import nullcontext

from repro.bench import clear_cache
from repro.core.api import run_case
from repro.core.params import ProblemShape
from repro.exec import evaluate_cells
from repro.machine import UMD_CLUSTER
from repro.obs import Tracer, current_tracer, scoped_registry, tracing
from repro.simmpi import run_spmd


def prog_overlap(ctx):
    """The paper's manual-progression pattern — exercises every
    scheduler path (handoffs, probe polls, wakeups)."""
    comm = ctx.comm
    req = comm.ialltoall(1 << 22)
    ctx.progress_phases(((0.004, 8, "FFTy"),), [req])
    yield from comm.co_wait(req, label="Wait")
    got = yield from comm.co_alltoall(8, payload=[ctx.rank] * ctx.size)
    return ctx.now, sum(got)


def fingerprint(sim):
    return (
        sim.elapsed,
        sim.results,
        [t.by_label for t in sim.traces],
        [t.events for t in sim.traces],
        (sim.stats.handoffs, sim.stats.probe_polls, sim.stats.wakeups),
    )


def test_spmd_run_identical_with_and_without_tracer():
    baseline = run_spmd(6, prog_overlap, UMD_CLUSTER, record_events=True)
    with scoped_registry() as reg, tracing(Tracer(rank_spans=True)) as tr:
        traced = run_spmd(6, prog_overlap, UMD_CLUSTER, record_events=True)
    assert fingerprint(traced) == fingerprint(baseline)
    # ... and the run it didn't perturb was captured: counts in the
    # registry, events as spans.
    assert reg.value("sim_handoffs_total", backend="tasks") == \
        baseline.stats.handoffs
    assert reg.value("sim_probe_polls_total", backend="tasks") == \
        baseline.stats.probe_polls
    assert reg.value("sim_wakeups_total", backend="tasks") == \
        baseline.stats.wakeups
    assert sum(len(t.events) for t in baseline.traces) == len(tr.spans)


def test_rank_span_recording_does_not_change_times():
    """rank_spans forces event recording on; that must not move clocks."""
    baseline = run_spmd(6, prog_overlap, UMD_CLUSTER)
    with tracing(Tracer(rank_spans=True)):
        traced = run_spmd(6, prog_overlap, UMD_CLUSTER)
    assert traced.elapsed == baseline.elapsed
    assert [t.by_label for t in traced.traces] == \
           [t.by_label for t in baseline.traces]
    assert (traced.stats.handoffs, traced.stats.probe_polls) == \
           (baseline.stats.handoffs, baseline.stats.probe_polls)


def test_pipeline_run_identical_under_tracing():
    """Full instrumented pipeline: attrs on FFTy/Pack/Unpack/FFTx and
    Ialltoall must not change the simulated result."""
    shape = ProblemShape(64, 64, 64, 4)
    base, _ = run_case("NEW", UMD_CLUSTER, shape)
    with tracing(Tracer(rank_spans=True)):
        traced, _ = run_case("NEW", UMD_CLUSTER, shape)
    assert traced.sim.elapsed == base.sim.elapsed
    assert traced.sim.breakdown() == base.sim.breakdown()


def test_no_tracer_leaks_after_tracing_block():
    with tracing(Tracer()):
        pass
    assert current_tracer() is None


class TestSchedTotals:
    def test_totals_accumulate_and_reset(self):
        with scoped_registry() as reg:
            a = run_spmd(4, prog_overlap, UMD_CLUSTER)
            b = run_spmd(4, prog_overlap, UMD_CLUSTER)
        assert reg.value("sim_runs_total", backend="tasks") == 2
        assert reg.value("sim_handoffs_total", backend="tasks") == \
            a.stats.handoffs + b.stats.handoffs
        # a fresh scope is the reset: it starts from nothing
        with scoped_registry() as fresh:
            assert fresh.value("sim_handoffs_total", backend="tasks") is None

    def test_per_run_stats_isolated_from_totals(self):
        with scoped_registry() as reg:
            a = run_spmd(4, prog_overlap, UMD_CLUSTER)
            b = run_spmd(4, prog_overlap, UMD_CLUSTER)
        # identical runs -> identical per-run counters (no global bleed)
        assert a.stats.handoffs == b.stats.handoffs
        assert reg.value("sim_probe_polls_total", backend="tasks") == \
            a.stats.probe_polls + b.stats.probe_polls


class TestCountsIndependentOfTracing:
    """The registry counts a run the same whether or not a tracer is
    installed — the bench-smoke grid, ``tune_*`` families included."""

    GRID = {"UMD-Cluster": [(4, 32), (8, 32)], "Hopper": [(4, 32)]}

    def _counters(self, traced):
        clear_cache()
        with scoped_registry() as reg:
            with tracing(Tracer(rank_spans=False)) if traced \
                    else nullcontext():
                for platform, cells in self.GRID.items():
                    evaluate_cells(platform, cells, jobs=1,
                                   max_evaluations=6)
        clear_cache()
        return {name: fam["samples"] for name, fam in reg.snapshot().items()
                if fam["kind"] == "counter"}

    def test_same_counter_samples_with_and_without_tracer(self):
        traced = self._counters(traced=True)
        untraced = self._counters(traced=False)
        assert traced == untraced
        assert {"sim_handoffs_total", "tune_evals_total",
                "pool_items_total"} <= set(traced)
