"""Overlap accounting: run_metrics on simulated runs."""

import pytest

from repro.core.api import run_case
from repro.core.params import ProblemShape
from repro.machine import UMD_CLUSTER
from repro.obs import EXPOSED_LABELS, OVERLAP_LABELS, run_metrics
from repro.simmpi import run_spmd


def test_label_vocabulary():
    assert set(OVERLAP_LABELS) == {"FFTy", "Pack", "Unpack", "FFTx"}
    assert set(EXPOSED_LABELS) == {"Wait", "A2A"}


class TestOnPipelineRuns:
    def test_overlapped_variant_reports_window(self):
        result, _ = run_case("NEW", UMD_CLUSTER, ProblemShape(64, 64, 64, 4))
        m = run_metrics(result.sim)
        bd = result.sim.breakdown()
        assert m["elapsed_s"] == result.sim.elapsed
        assert m["overlap_compute_s"] == pytest.approx(
            sum(bd.get(k, 0.0) for k in OVERLAP_LABELS)
        )
        assert m["exposed_comm_s"] == pytest.approx(
            sum(bd.get(k, 0.0) for k in EXPOSED_LABELS)
        )
        assert 0.0 < m["overlap_efficiency_pct"] <= 100.0
        assert m["sched_handoffs"] > 0
        assert m["sched_backend"] == "tasks"

    def test_test_calls_per_rank_from_test_time(self):
        result, _ = run_case("NEW", UMD_CLUSTER, ProblemShape(64, 64, 64, 4))
        m = run_metrics(result.sim)
        overhead = UMD_CLUSTER.cpu.test_overhead
        assert m["test_calls_per_rank"] == round(m["test_time_s"] / overhead)
        assert m["test_calls_per_rank"] > 0

    def test_blocking_baseline_has_exposed_comm(self):
        result, _ = run_case("FFTW", UMD_CLUSTER, ProblemShape(64, 64, 64, 4))
        m = run_metrics(result.sim)
        assert m["exposed_comm_s"] > 0.0
        assert m["test_time_s"] == 0.0


class TestEdgeCases:
    def test_no_window_reports_zero_efficiency(self):
        def compute_only(ctx):
            ctx.compute(0.001, "work")
            yield from ()  # never blocks, but runs as a generator program

        sim = run_spmd(2, compute_only, UMD_CLUSTER)
        m = run_metrics(sim)
        assert m["overlap_compute_s"] == 0.0
        assert m["exposed_comm_s"] == 0.0
        assert m["overlap_efficiency_pct"] == 0.0

    def test_fully_exposed_reports_zero_efficiency(self):
        def wait_only(ctx):
            req = ctx.comm.ialltoall(1 << 20)
            yield from ctx.comm.co_wait(req, label="Wait")

        sim = run_spmd(2, wait_only, UMD_CLUSTER)
        m = run_metrics(sim)
        assert m["exposed_comm_s"] > 0.0
        assert m["overlap_efficiency_pct"] == 0.0
