"""App drivers: numerics vs serial oracles, accounting, plan resolution."""

import numpy as np
import pytest

from repro.apps import (
    APPS,
    AppConfig,
    AppDriver,
    ConvolutionDriver,
    PoissonDriver,
    TurbulenceDriver,
    manufactured_problem,
    percentile,
    resolve_plan,
    serial_poisson,
    solve_poisson,
)
from repro.core.params import ProblemShape, TuningParams
from repro.errors import ParameterError
from repro.faults import injected_faults, parse_faults
from repro.machine import UMD_CLUSTER
from repro.obs.registry import MetricsRegistry, scoped_registry

SHAPE = ProblemShape(16, 16, 16, 4)


def config(**kw) -> AppConfig:
    base = dict(shape=SHAPE, platform=UMD_CLUSTER, steps=3, warmup=1)
    base.update(kw)
    return AppConfig(**base)


class TestNumerics:
    @pytest.mark.parametrize("name", sorted(APPS))
    def test_driver_matches_serial_oracle(self, name):
        res = APPS[name](config()).run()
        assert res.numerics_ok, f"{name}: {res.numerics_error}"
        assert res.numerics_error < res.numerics_tol

    def test_poisson_matches_analytic_eigenfunction(self):
        driver = PoissonDriver(config())
        driver.run()
        assert driver.analytic_error() < 1e-10

    def test_turbulence_state_evolves(self):
        driver = TurbulenceDriver(config())
        driver.run()
        assert not np.array_equal(driver.u_hat, driver.u_hat0)

    def test_convolution_smooths(self):
        driver = ConvolutionDriver(config())
        driver.run()
        assert driver.last_out.std() < driver.last_in.std()

    def test_solve_poisson_helper_vs_serial(self):
        f, _ = manufactured_problem((16, 16, 16))
        u, (fwd, inv) = solve_poisson(-f, 4, UMD_CLUSTER)
        ref = serial_poisson(-f)
        assert np.abs(u - ref).max() < 1e-10 * np.abs(ref).max()
        assert fwd.elapsed > 0 and inv.elapsed > 0


class _Counted(AppDriver):
    """Inert driver: isolates the harness accounting from real work."""

    name = "counted"
    transforms_per_step = 2
    numerics_tol = 1.0

    def prepare(self):
        self.calls = []

    def step(self, index):
        self.calls.append(index)
        return {"virtual_s": 0.25}

    def oracle_error(self):
        return 0.0


class TestAccounting:
    def make(self, durations, warmup, first_gap=0.0):
        """A _Counted run whose steps take exactly ``durations`` seconds
        on a scripted clock (two clock reads per step)."""
        ticks = []
        t = 0.0
        for d in durations:
            ticks.extend([t, t + d])
            t += d + first_gap
        it = iter(ticks)
        cfg = config(steps=len(durations) - warmup, warmup=warmup,
                     clock=lambda: next(it))
        return _Counted(cfg).run()

    def test_warmup_excluded_from_throughput(self):
        # warmup step takes 10s; measured steps 1s each -> 2 transforms/s.
        res = self.make([10.0, 1.0, 1.0, 1.0], warmup=1)
        assert res.step_wall_s == [10.0, 1.0, 1.0, 1.0]
        assert res.measured_wall_s == [1.0, 1.0, 1.0]
        assert res.transforms_per_sec == pytest.approx(2.0)
        assert res.first_step_s == 10.0
        assert res.step_p50_s == 1.0
        assert res.plan_reuse_speedup == pytest.approx(10.0)

    def test_warmup_zero_still_drops_cold_step_from_percentiles(self):
        res = self.make([8.0, 2.0, 2.0, 2.0], warmup=0)
        # Throughput covers every measured step (warmup=0 excludes none)...
        assert res.transforms_per_sec == pytest.approx(8 / 14.0)
        # ...but the steady percentiles drop the cold first step.
        assert res.steady_wall_s == [2.0, 2.0, 2.0]
        assert res.plan_reuse_speedup == pytest.approx(4.0)

    def test_virtual_accounting_and_step_order(self):
        res = self.make([1.0, 1.0, 1.0], warmup=1)
        assert res.virtual_step_s == pytest.approx(0.25)
        assert res.steps == 2 and res.warmup == 1

    def test_registry_metrics_published(self):
        with scoped_registry(MetricsRegistry()) as reg:
            self.make([5.0, 1.0, 1.0], warmup=1)
            snap = reg.snapshot()
        steps = {tuple(map(tuple, k)): v
                 for k, v in snap["app_steps_total"]["samples"]}
        assert steps[(("app", "counted"), ("phase", "warmup"))] == 1
        assert steps[(("app", "counted"), ("phase", "measure"))] == 2
        transforms = snap["app_transforms_total"]["samples"]
        assert sum(v for _, v in transforms) == 6
        assert "app_steady_transforms_per_sec" in snap
        assert "app_plan_reuse_speedup" in snap

    def test_percentile_nearest_rank(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0
        assert percentile([1.0], 95) == 1.0
        assert np.isnan(percentile([], 50))


class TestPlanResolution:
    def test_explicit_params_win(self):
        params = TuningParams(T=4, W=2, Px=4, Pz=1, Uy=4, Uz=1,
                              Fy=2, Fp=2, Fu=2, Fx=2)
        plan = resolve_plan(config(params=params, budget=5))
        assert plan.source == "explicit"
        assert plan.params is params
        assert plan.sim_runs == 0

    def test_budget_tunes_locally_and_counts_sims(self):
        plan = resolve_plan(config(budget=4))
        assert plan.source == "tuned"
        assert plan.params is not None
        assert plan.sim_runs > 0
        assert plan.wall_s > 0

    def test_baseline_fallback(self):
        plan = resolve_plan(config())
        assert plan.source == "baseline"
        assert plan.params is None

    def test_plan_server_rejects_anisotropic_shape(self):
        cfg = config(shape=ProblemShape(12, 16, 20, 4),
                     plan_server="http://127.0.0.1:1")
        with pytest.raises(ParameterError, match="cubic"):
            resolve_plan(cfg)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            config(steps=0)
        with pytest.raises(ParameterError):
            config(warmup=-1)
        with pytest.raises(ParameterError, match="even Nz"):
            config(shape=ProblemShape(16, 16, 15, 4))


class TestFaultsSmoke:
    def test_straggler_shifts_virtual_p95_not_correctness(self):
        clean = PoissonDriver(config(steps=4)).run()
        spec = parse_faults("straggler:rank=1,slow=4.0;seed:7")
        with injected_faults(spec):
            faulted = PoissonDriver(config(steps=4)).run()
        assert faulted.numerics_ok  # payload math untouched
        assert faulted.numerics_error == pytest.approx(
            clean.numerics_error, rel=1e-6)
        p95 = percentile(clean.step_virtual_s[1:], 95)
        p95_f = percentile(faulted.step_virtual_s[1:], 95)
        assert p95_f > 1.5 * p95  # the straggler stretches virtual steps
