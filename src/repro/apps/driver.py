"""Application-driver base: traffic-shaped workloads over the pipelines.

The rest of the repo measures isolated transforms; real parallel-FFT
traffic (mpi4py-fft, P3DFFT — see PAPERS.md) is *applications* that call
forward/inverse FFTs thousands of times with plan and wisdom reuse
across steps.  :class:`AppDriver` is the harness for such workloads:

* a **plan-resolution** phase (:func:`resolve_plan`) that turns the
  app's setting into tuned parameters — explicit ``--params``, a warm
  plan-server fetch through :mod:`repro.serve` (zero local simulations),
  a local :func:`~repro.tuning.autotune` session, or the variant's
  untuned baseline;
* **warmup steps** excluded from every steady-state statistic, so the
  first-step planning/caching cost never pollutes throughput;
* **measured steps**, each wall-timed and traced as an ``app.step`` span
  with step-index attributes, publishing ``app_*`` counters/histograms
  to the ambient metrics registry (PR-7 plane);
* a final **numerics check** against a serial oracle.

Steady-state statistics follow the convention benchmarks expect:
``transforms_per_sec`` covers exactly the measured (post-warmup) steps;
the per-step p50/p95 and the ``plan_reuse_speedup`` ratio additionally
drop the very first process step even when ``warmup=0``, because that
step *is* the cold-plan measurement the speedup compares against.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..core.params import ProblemShape, TuningParams
from ..errors import ParameterError
from ..fft import Flag, planning_effort
from ..machine.platforms import Platform
from ..obs.registry import count, observe, run_registry, scoped_registry, set_gauge
from ..obs.tracer import current_tracer


def half_grid(shape: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer wavenumbers ``kx, ky, kz`` of the ``Nz//2 + 1`` half
    spectrum of a real ``shape`` array, broadcast to 3-D: ``fftfreq``
    on x and y, ``rfftfreq`` on z."""
    nx, ny, nz = shape
    return (np.fft.fftfreq(nx, d=1.0 / nx).reshape(-1, 1, 1),
            np.fft.fftfreq(ny, d=1.0 / ny).reshape(1, -1, 1),
            np.fft.rfftfreq(nz, d=1.0 / nz).reshape(1, 1, -1))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (same convention as the bench harnesses)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[k]


@dataclass
class AppConfig:
    """One application run: setting, traffic shape, and plan source."""

    shape: ProblemShape
    platform: Platform
    variant: str = "NEW"
    steps: int = 10
    warmup: int = 2
    seed: int = 0
    params: TuningParams | None = None
    plan_server: str | None = None
    tenant: str | None = None
    token: str | None = None
    budget: int | None = None
    eval_store: Any = None
    plan_effort: str | None = None
    clock: Callable[[], float] | None = None

    def __post_init__(self) -> None:
        if self.shape.nz % 2:
            raise ParameterError(
                f"the apps transform real fields r2c/c2r, which needs an "
                f"even Nz, got {self.shape.nz}")
        if self.steps < 1:
            raise ParameterError(f"steps must be >= 1, got {self.steps}")
        if self.warmup < 0:
            raise ParameterError(f"warmup must be >= 0, got {self.warmup}")


@dataclass
class PlanResolution:
    """Where an app's tuned parameters came from, and what it cost."""

    source: str                      # explicit | server | tuned | baseline
    variant: str
    params: TuningParams | None
    sim_runs: int = 0                # simulations spent resolving the plan
    wall_s: float = 0.0
    provenance: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "source": self.source,
            "variant": self.variant,
            "params": None if self.params is None else self.params.as_dict(),
            "sim_runs": self.sim_runs,
            "wall_s": self.wall_s,
            "provenance": self.provenance,
        }


def _registry_total(reg, name: str) -> float:
    return reg.total(name)


def resolve_plan(config: AppConfig) -> PlanResolution:
    """Resolve tuned parameters for an app run.

    Precedence: explicit ``params`` → ``plan_server`` (warm fetch via the
    serve client; the scoped registry proves the client side ran zero
    simulations) → local ``budget``-bounded autotuning (optionally
    through a shared eval store) → the variant's untuned baseline.
    """
    shape, variant = config.shape, config.variant
    if config.params is not None:
        return PlanResolution("explicit", variant, config.params)

    if config.plan_server:
        if not (shape.nx == shape.ny == shape.nz):
            raise ParameterError(
                "--plan-server plans are keyed by a single cubic N; "
                f"got {shape.nx}x{shape.ny}x{shape.nz} (resolve "
                "anisotropic shapes locally instead)"
            )
        from ..serve.client import request_plan, wait_for_plan

        t0 = time.perf_counter()
        with scoped_registry() as reg:
            code, body = request_plan(
                config.plan_server,
                platform=config.platform.name,
                p=shape.p,
                n=shape.nx,
                variant=variant,
                budget=config.budget,
                tenant=config.tenant,
                token=config.token,
            )
            if code == 202:
                body = wait_for_plan(
                    config.plan_server, body["job"], token=config.token
                )
            client_sims = int(_registry_total(reg, "sim_runs_total"))
        plan = body["plan"]
        provenance = dict(body.get("provenance", {}))
        provenance["status_code"] = code
        return PlanResolution(
            "server",
            plan.get("variant", variant),
            TuningParams(**plan["params"]),
            sim_runs=client_sims,
            wall_s=time.perf_counter() - t0,
            provenance=provenance,
        )

    if config.budget is not None:
        from ..tuning import autotune

        t0 = time.perf_counter()
        # counted where the caller's counts go (its eval-store hits too)
        with run_registry() as reg:
            before = _registry_total(reg, "sim_runs_total")
            result = autotune(
                variant,
                config.platform,
                shape,
                max_evaluations=config.budget,
                eval_store=config.eval_store,
            )
            sims = int(_registry_total(reg, "sim_runs_total") - before)
        return PlanResolution(
            "tuned",
            variant,
            result.best_params,
            sim_runs=sims,
            wall_s=time.perf_counter() - t0,
            provenance={"objective": result.best_objective,
                        "tuning_time_virtual_s": result.tuning_time},
        )

    return PlanResolution("baseline", variant, None)


@dataclass
class AppResult:
    """Outcome of one application run, warmup excluded where it matters."""

    app: str
    shape: ProblemShape
    variant: str
    steps: int
    warmup: int
    transforms_per_step: int
    plan: PlanResolution
    step_wall_s: list[float]
    step_virtual_s: list[float]
    numerics_error: float
    numerics_tol: float

    @property
    def measured_wall_s(self) -> list[float]:
        """Wall times of the measured (post-warmup) steps."""
        return self.step_wall_s[self.warmup:]

    @property
    def steady_wall_s(self) -> list[float]:
        """Measured steps minus the cold first process step (see module
        docstring) — the population p50/p95 and the reuse speedup use."""
        return self.step_wall_s[max(self.warmup, 1):]

    @property
    def first_step_s(self) -> float:
        return self.step_wall_s[0]

    @property
    def step_p50_s(self) -> float:
        return percentile(self.steady_wall_s, 50)

    @property
    def step_p95_s(self) -> float:
        return percentile(self.steady_wall_s, 95)

    @property
    def transforms_per_sec(self) -> float:
        """Steady-state throughput over exactly the measured steps."""
        total = sum(self.measured_wall_s)
        if total <= 0:
            return float("nan")
        return self.transforms_per_step * len(self.measured_wall_s) / total

    @property
    def plan_reuse_speedup(self) -> float:
        """Cold first step vs steady p50 — what plan/wisdom reuse buys."""
        p50 = self.step_p50_s
        return self.first_step_s / p50 if p50 > 0 else float("nan")

    @property
    def virtual_step_s(self) -> float:
        """Mean simulated seconds per measured step."""
        vs = self.step_virtual_s[self.warmup:]
        return sum(vs) / len(vs) if vs else 0.0

    @property
    def numerics_ok(self) -> bool:
        return bool(self.numerics_error <= self.numerics_tol)

    def as_dict(self) -> dict:
        return {
            "app": self.app,
            "shape": [self.shape.nx, self.shape.ny, self.shape.nz],
            "p": self.shape.p,
            "variant": self.variant,
            "steps": self.steps,
            "warmup": self.warmup,
            "transforms_per_step": self.transforms_per_step,
            "plan": self.plan.as_dict(),
            "first_step_s": self.first_step_s,
            "step_p50_s": self.step_p50_s,
            "step_p95_s": self.step_p95_s,
            "transforms_per_sec": self.transforms_per_sec,
            "plan_reuse_speedup": self.plan_reuse_speedup,
            "virtual_step_s": self.virtual_step_s,
            "numerics_error": self.numerics_error,
            "numerics_ok": self.numerics_ok,
        }


class AppDriver:
    """Base class for traffic-shaped application workloads.

    Subclasses set :attr:`name` / :attr:`transforms_per_step` /
    :attr:`numerics_tol` and implement :meth:`prepare` (build initial
    state), :meth:`step` (one application step; returns per-step info
    with at least ``virtual_s``), and :meth:`oracle_error` (max relative
    error of the final state vs a serial reference).
    """

    name = "app"
    transforms_per_step = 2
    numerics_tol = 1e-8

    def __init__(self, config: AppConfig) -> None:
        self.config = config
        self.params: TuningParams | None = None
        self.variant = config.variant
        self._clock = config.clock or time.perf_counter

    # -- subclass hooks ----------------------------------------------------

    def prepare(self) -> None:
        raise NotImplementedError

    def step(self, index: int) -> dict:
        raise NotImplementedError

    def oracle_error(self) -> float:
        raise NotImplementedError

    # -- harness -----------------------------------------------------------

    def run(self) -> AppResult:
        cfg = self.config
        plan = resolve_plan(cfg)
        self.params = plan.params
        self.variant = plan.variant
        effort = (
            planning_effort(Flag(cfg.plan_effort.lower()))
            if cfg.plan_effort else nullcontext()
        )
        tracer = current_tracer()
        walls: list[float] = []
        virtuals: list[float] = []
        with effort:
            self.prepare()
            total = cfg.warmup + cfg.steps
            for i in range(total):
                phase = "warmup" if i < cfg.warmup else "measure"
                span = (
                    tracer.span("app.step", track="app", app=self.name,
                                step=i, phase=phase)
                    if tracer is not None else nullcontext({})
                )
                with span as attrs:
                    t0 = self._clock()
                    info = self.step(i) or {}
                    wall = self._clock() - t0
                    attrs.update(info)
                    attrs["wall_s"] = wall
                walls.append(wall)
                virtuals.append(float(info.get("virtual_s", 0.0)))
                count("app_steps_total", app=self.name, phase=phase)
                count("app_transforms_total", self.transforms_per_step,
                      app=self.name)
                observe("app_step_seconds", wall, app=self.name, phase=phase)
        result = AppResult(
            app=self.name,
            shape=cfg.shape,
            variant=self.variant,
            steps=cfg.steps,
            warmup=cfg.warmup,
            transforms_per_step=self.transforms_per_step,
            plan=plan,
            step_wall_s=walls,
            step_virtual_s=virtuals,
            numerics_error=float(self.oracle_error()),
            numerics_tol=self.numerics_tol,
        )
        set_gauge("app_steady_transforms_per_sec", result.transforms_per_sec,
                  app=self.name)
        set_gauge("app_plan_reuse_speedup", result.plan_reuse_speedup,
                  app=self.name)
        return result

    # -- shared numerics helpers ------------------------------------------

    def wavenumbers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integer wavenumber grids ``kx, ky, kz`` of the half spectrum
        (:func:`half_grid`), broadcast to 3-D."""
        s = self.config.shape
        return half_grid((s.nx, s.ny, s.nz))

    def ksq(self) -> np.ndarray:
        kx, ky, kz = self.wavenumbers()
        return kx * kx + ky * ky + kz * kz
