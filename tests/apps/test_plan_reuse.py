"""Plan + wisdom reuse across repeated same-shape transforms.

The registry counters added in this PR (`fft_plans_built_total`,
`fft_wisdom_hits_total`, `fft_kernel_*`) make reuse *provable*: after
the first step of an app has planned its sizes, steps 2..N must build
zero new plans.
"""

import numpy as np
import pytest

from repro.apps import AppConfig, PoissonDriver
from repro.core.params import ProblemShape
from repro.fft import (
    FORWARD,
    Flag,
    GLOBAL_WISDOM,
    Plan1D,
    clear_plan_cache,
    default_planning_flag,
    planning_effort,
)
from repro.machine import UMD_CLUSTER
from repro.obs.registry import MetricsRegistry, scoped_registry


@pytest.fixture(autouse=True)
def fresh_planner_state():
    """Cold wisdom + kernel cache before, and clean up after."""
    GLOBAL_WISDOM.forget()
    clear_plan_cache()
    yield
    GLOBAL_WISDOM.forget()
    clear_plan_cache()


def total(reg, name):
    fam = reg.snapshot().get(name)
    return sum(v for _, v in fam["samples"]) if fam else 0.0


class TestCounters:
    def test_plan_built_once_then_wisdom_hits(self):
        with scoped_registry(MetricsRegistry()) as reg:
            Plan1D(24)
            assert total(reg, "fft_plans_built_total") == 1
            assert total(reg, "fft_wisdom_hits_total") == 0
            Plan1D(24)
            Plan1D(24)
            assert total(reg, "fft_plans_built_total") == 1
            assert total(reg, "fft_wisdom_hits_total") == 2

    def test_flag_label_on_plans_built(self):
        with scoped_registry(MetricsRegistry()) as reg:
            Plan1D(24, flag=Flag.MEASURE)
            snap = reg.snapshot()["fft_plans_built_total"]["samples"]
            labels = {tuple(map(tuple, k)) for k, _ in snap}
        assert (("flag", "measure"),) in labels

    def test_kernel_cache_shares_instances(self):
        p1 = Plan1D(24)
        p2 = Plan1D(24)
        assert p1._kernel is p2._kernel
        with scoped_registry(MetricsRegistry()) as reg:
            Plan1D(24)
            assert total(reg, "fft_kernel_builds_total") == 0
            assert total(reg, "fft_kernel_cache_hits_total") >= 1
        clear_plan_cache()
        p3 = Plan1D(24)
        assert p3._kernel is not p1._kernel

    def test_kernel_cache_keyed_by_sign(self):
        fwd = Plan1D(24, FORWARD)
        bwd = Plan1D(24, -FORWARD)
        assert fwd._kernel is not bwd._kernel


class TestPlanningEffort:
    def test_default_is_estimate(self):
        assert default_planning_flag() is Flag.ESTIMATE
        assert Plan1D(16).flag is Flag.ESTIMATE

    def test_override_applies_and_restores(self):
        with planning_effort(Flag.PATIENT):
            assert default_planning_flag() is Flag.PATIENT
            assert Plan1D(16).flag is Flag.PATIENT
        assert default_planning_flag() is Flag.ESTIMATE

    def test_string_coercion_and_restore_on_error(self):
        with pytest.raises(RuntimeError):
            with planning_effort("measure"):
                assert default_planning_flag() is Flag.MEASURE
                raise RuntimeError("boom")
        assert default_planning_flag() is Flag.ESTIMATE

    def test_explicit_flag_beats_default(self):
        with planning_effort(Flag.PATIENT):
            assert Plan1D(16, flag=Flag.ESTIMATE).flag is Flag.ESTIMATE

    def test_same_numerics_at_all_efforts(self):
        x = np.random.default_rng(3).standard_normal(24) + 0j
        ref = np.fft.fft(x)
        for flag in Flag:
            out = Plan1D(24, flag=flag).execute(x)
            assert np.abs(out - ref).max() < 1e-10


class _PerStepPlans(PoissonDriver):
    """Poisson driver recording cumulative plans built after each step."""

    def prepare(self):
        super().prepare()
        self.plans_after_step = []

    def step(self, index):
        out = super().step(index)
        from repro.obs.registry import current_registry

        fam = current_registry().snapshot().get("fft_plans_built_total")
        built = sum(v for _, v in fam["samples"]) if fam else 0.0
        self.plans_after_step.append(built)
        return out


class TestAppPlanReuse:
    def test_steps_2_to_n_build_zero_new_plans(self):
        # Anisotropic grid -> three distinct 1-D plan sizes, each planned
        # once per direction during step 1; every later step must be
        # wisdom-only.
        cfg = AppConfig(shape=ProblemShape(12, 16, 20, 4),
                        platform=UMD_CLUSTER, steps=4, warmup=0)
        with scoped_registry(MetricsRegistry()):
            driver = _PerStepPlans(cfg)
            res = driver.run()
        assert res.numerics_ok
        after_first, *rest = driver.plans_after_step
        assert after_first == 6  # per size, the r2c forward's plan and
        #                          the c2r inverse's backward-sign one
        assert rest == [after_first] * (len(driver.plans_after_step) - 1)

    def test_second_run_in_process_plans_nothing(self):
        cfg = AppConfig(shape=ProblemShape(16, 16, 16, 4),
                        platform=UMD_CLUSTER, steps=2, warmup=0)
        with scoped_registry(MetricsRegistry()):
            PoissonDriver(cfg).run()
        with scoped_registry(MetricsRegistry()) as reg:
            PoissonDriver(cfg).run()
            # The first run left its distributed plan in the process
            # cache, and the plan holds its 1-D plans: no plan is
            # built, no wisdom is looked up, no engine runs, and every
            # transform replays the plan's kept timeline.
            assert total(reg, "fft_plans_built_total") == 0
            assert total(reg, "fft_wisdom_hits_total") == 0
            assert total(reg, "sim_runs_total") == 0
            transforms = total(reg, "app_transforms_total")
            assert transforms == 2 * cfg.steps
            assert total(reg, "fft3d_replays_total") == transforms
