"""Tracing must be free when disabled and inert when enabled.

The acceptance bar (tier 1): with tracing disabled nothing changed at
all, and — stronger — *enabling* a tracer cannot perturb the simulation
either, because instrumentation only reads virtual clocks.  Virtual
times, per-rank event timelines, and per-run ``SchedStats`` must be
bit-identical with and without an installed tracer.
"""

from repro.core.api import run_case
from repro.core.params import ProblemShape
from repro.machine import UMD_CLUSTER
from repro.obs import (
    Tracer,
    current_tracer,
    reset_sched_totals,
    sched_totals,
    tracing,
)
from repro.simmpi import run_spmd
from repro.simmpi.engine import SchedStats


def prog_overlap(ctx):
    """The paper's manual-progression pattern — exercises every
    scheduler path (handoffs, probe polls, wakeups)."""
    comm = ctx.comm
    req = comm.ialltoall(1 << 22)
    ctx.progress_phases(((0.004, 8, "FFTy"),), [req])
    yield from comm.co_wait(req, label="Wait")
    total = yield from comm.co_allreduce(ctx.rank, nbytes=8)
    return ctx.now, total


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
    with tracing(Tracer(rank_spans=True)) as tr:
        traced = run_spmd(6, prog_overlap, UMD_CLUSTER, record_events=True)
    assert fingerprint(traced) == fingerprint(baseline)
    # ... and the trace actually captured the run it didn't perturb.
    assert tr.counters["sched.handoffs"] == baseline.stats.handoffs
    assert tr.counters["sched.probe_polls"] == baseline.stats.probe_polls
    assert tr.counters["sched.wakeups"] == baseline.stats.wakeups
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
        reset_sched_totals()
        run_spmd(4, prog_overlap, UMD_CLUSTER)
        totals = sched_totals()
        before = (totals.handoffs, totals.probe_polls, totals.wakeups)
        assert totals.handoffs > 0 and totals.probe_polls > 0
        snap = reset_sched_totals()
        # the snapshot keeps the pre-reset values; the live accumulator
        # (sched_totals() returns the object itself) is zeroed in place
        assert (snap.handoffs, snap.probe_polls, snap.wakeups) == before
        assert (totals.handoffs, totals.probe_polls, totals.wakeups) == (0, 0, 0)

    def test_reset_method_on_stats(self):
        stats = SchedStats(backend="tasks", handoffs=3, probe_polls=2,
                           wakeups=1)
        stats.reset()
        assert (stats.handoffs, stats.probe_polls, stats.wakeups) == (0, 0, 0)
        assert stats.backend == "tasks"

    def test_per_run_stats_isolated_from_totals(self):
        reset_sched_totals()
        a = run_spmd(4, prog_overlap, UMD_CLUSTER)
        b = run_spmd(4, prog_overlap, UMD_CLUSTER)
        # identical runs -> identical per-run counters (no global bleed)
        assert a.stats.handoffs == b.stats.handoffs
        assert sched_totals().handoffs == a.stats.handoffs + b.stats.handoffs
