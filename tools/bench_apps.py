"""Application-workload benchmark: write BENCH_apps.json.

Usage:  python tools/bench_apps.py [--steps N] [--out PATH]

Proves the `repro.apps` traffic story (PR 10) end to end:

1. **plan reuse** — a Poisson app on an *anisotropic* grid (three
   distinct 1-D plan sizes) under EXHAUSTIVE planning effort, warmup=0
   so step 1 pays the full cold planning bill.  Recorded: first-step
   wall vs steady p50 (the plan/wisdom-reuse speedup, must be >= 1.5x)
   and the registry proof that steps 2..N built **zero** new plans
   (`fft_plans_built_total` stays at the step-1 count) while a warm
   rerun in the same process builds none at all.
2. **warm plan server** — a real :class:`~repro.serve.PlanServer` is
   warmed by one cold request, then the app resolves its plan through
   ``--plan-server``: the fetch must run **zero** client-side
   simulations and leave the server's `sim_runs_total` untouched.
3. **cold local tuning** — the same app resolves the same cell through
   a local tuning session instead; recorded as the startup price a warm
   server saves (warm fetch wall vs local tuning wall).
4. **apps sweep** — all three drivers run once; steady-state
   transforms/sec and the serial-oracle error are recorded and must
   pass, and so are each steady step's engine runs (`sim_runs_total`,
   0 once the cached distributed plan holds the timeline), plan
   replays (`fft3d_replays_total`, one per transform) and 1-D kernel
   calls (`Plan1D.execute`, 3 per replay: one per axis on the whole
   array).
5. **replay vs numpy** — one replayed transform against numpy's of the
   same array, on 16^3 to 128^3 cubes, with the 1-D kernel each axis
   planned: a c2c row against ``numpy.fft.fftn``, an r2c row against
   ``rfftn`` and a c2r row against ``irfftn`` per cube — the gap the
   from-scratch kernels leave to a library FFT.

The JSON keeps raw counters so the trajectory is comparable across
commits, same shape discipline as BENCH_serve.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.apps import APPS, AppConfig, PoissonDriver  # noqa: E402
from repro.core.api import (  # noqa: E402
    parallel_fft3d,
    parallel_irfft3d,
    parallel_rfft3d,
)
from repro.core.distplan import fft3d_plan  # noqa: E402
from repro.core.params import ProblemShape  # noqa: E402
from repro.fft import GLOBAL_WISDOM, Plan1D, clear_plan_cache  # noqa: E402
from repro.machine.platforms import get_platform  # noqa: E402
from repro.obs.registry import (  # noqa: E402
    MetricsRegistry,
    current_registry,
    scoped_registry,
)
from repro.serve import PlanServer, ServeConfig, request_plan, wait_for_plan  # noqa: E402

PLATFORM = "UMD-Cluster"
SERVE_P, SERVE_N = 4, 32
#: the apps sweep's cell
APPS_P, APPS_N = 4, 16
#: timed calls per side of the replay-vs-numpy row at the apps cell's 16^3
NUMPY_REPS = 200
#: cube edges of the replay-vs-numpy rows
REPLAY_SIZES = (16, 32, 64, 128)
#: registry counters recorded per app step in the sweep
STEP_COUNTERS = ("sim_runs_total", "fft3d_replays_total")


def reg_total(reg: MetricsRegistry, name: str) -> float:
    fam = reg.snapshot().get(name)
    return sum(v for _, v in fam["samples"]) if fam else 0.0


def bench_plan_reuse(steps: int) -> dict:
    """Phase 1: cold-plan first step vs plan/wisdom-reuse steady state."""
    platform = get_platform(PLATFORM)
    shape = ProblemShape(24, 30, 36, 4)
    # Cold process state: no wisdom, no shared kernels.
    GLOBAL_WISDOM.forget()
    clear_plan_cache()
    cfg = AppConfig(shape=shape, platform=platform, steps=steps, warmup=0,
                    plan_effort="exhaustive")
    with scoped_registry(MetricsRegistry()) as reg:
        res = PoissonDriver(cfg).run()
        plans_built = reg_total(reg, "fft_plans_built_total")
        wisdom_hits = reg_total(reg, "fft_wisdom_hits_total")
    assert res.numerics_ok, f"numerics failed: {res.numerics_error}"
    # Two plans per distinct 1-D size, one per direction (the r2c
    # forward's and the c2r inverse's); everything after step 1 is
    # wisdom.
    assert plans_built <= 6, f"{plans_built} plans built for 3 sizes"
    speedup = res.plan_reuse_speedup
    assert speedup >= 1.5, (
        f"plan-reuse speedup {speedup:.2f}x < 1.5x "
        f"(first {res.first_step_s:.4f}s, p50 {res.step_p50_s:.4f}s)"
    )
    # A warm rerun in the same process must replan nothing at all.
    with scoped_registry(MetricsRegistry()) as reg2:
        warm_cfg = AppConfig(shape=shape, platform=platform, steps=3,
                             warmup=0, plan_effort="exhaustive")
        warm = PoissonDriver(warm_cfg).run()
        warm_plans = reg_total(reg2, "fft_plans_built_total")
    assert warm_plans == 0, f"warm rerun built {warm_plans} plans"
    print(f"  first step {res.first_step_s * 1e3:.1f}ms, steady p50 "
          f"{res.step_p50_s * 1e3:.1f}ms -> {speedup:.2f}x reuse speedup; "
          f"{int(plans_built)} plans built, warm rerun 0")
    return {
        "app": "poisson",
        "shape": [24, 30, 36],
        "p": 4,
        "plan_effort": "exhaustive",
        "steps": steps,
        "first_step_s": round(res.first_step_s, 5),
        "steady_p50_s": round(res.step_p50_s, 5),
        "steady_p95_s": round(res.step_p95_s, 5),
        "speedup": round(speedup, 3),
        "plans_built": int(plans_built),
        "wisdom_hits": int(wisdom_hits),
        "warm_rerun_plans_built": int(warm_plans),
        "warm_rerun_p50_s": round(warm.step_p50_s, 5),
    }


def bench_serve_phases(tmp: Path, budget: int, steps: int) -> tuple[dict, dict]:
    """Phases 2+3: warm plan-server fetch vs cold local tuning."""
    platform = get_platform(PLATFORM)
    shape = ProblemShape(SERVE_N, SERVE_N, SERVE_N, SERVE_P)
    server_reg = MetricsRegistry()
    with scoped_registry(server_reg):
        server = PlanServer(ServeConfig(
            root=str(tmp / "store"), default_budget=budget,
        ))
    url = server.start()
    try:
        # Warm the store with one cold request (the serve-plane price).
        t0 = time.monotonic()
        code, body = request_plan(url, PLATFORM, SERVE_P, SERVE_N)
        if code == 202:
            wait_for_plan(url, body["job"], timeout=600)
        cold_tune_wall = round(time.monotonic() - t0, 4)

        server_sims_before = reg_total(server_reg, "sim_runs_total")
        cfg = AppConfig(shape=shape, platform=platform, steps=steps,
                        warmup=1, plan_server=url)
        res = PoissonDriver(cfg).run()
        server_sims = reg_total(server_reg, "sim_runs_total") - server_sims_before
    finally:
        server.stop()
    assert res.plan.source == "server"
    assert res.plan.sim_runs == 0, (
        f"warm fetch ran {res.plan.sim_runs} client simulations"
    )
    assert res.plan.provenance.get("simulations") == 0
    assert server_sims == 0, f"server simulated {server_sims} runs when warm"
    assert res.numerics_ok
    warm = {
        "cell": [SERVE_P, SERVE_N],
        "budget": budget,
        "cold_tune_wall_s": cold_tune_wall,
        "fetch_wall_s": round(res.plan.wall_s, 4),
        "client_sim_runs": res.plan.sim_runs,
        "server_sim_runs_during_app": int(server_sims),
        "transforms_per_sec": round(res.transforms_per_sec, 2),
        "step_p50_s": round(res.step_p50_s, 5),
        # Simulated seconds per step are a deterministic function of the
        # tuned params + pipeline code -> the guard's tight 5% bound.
        "virtual_step_s": round(res.virtual_step_s, 6),
        "virtual_transforms_per_sec": round(
            res.transforms_per_step / res.virtual_step_s, 2),
    }
    print(f"  warm fetch {warm['fetch_wall_s']}s (0 simulations), steady "
          f"{warm['transforms_per_sec']} transforms/s")

    # Phase 3: resolve the same cell with a local tuning session.
    t0 = time.monotonic()
    cfg = AppConfig(shape=shape, platform=platform, steps=steps,
                    warmup=1, budget=budget)
    res_local = PoissonDriver(cfg).run()
    assert res_local.plan.source == "tuned"
    assert res_local.plan.sim_runs > 0, "local tuning simulated nothing"
    assert res_local.numerics_ok
    cold = {
        "cell": [SERVE_P, SERVE_N],
        "budget": budget,
        "resolve_wall_s": round(res_local.plan.wall_s, 4),
        "sim_runs": res_local.plan.sim_runs,
        "transforms_per_sec": round(res_local.transforms_per_sec, 2),
        "step_p50_s": round(res_local.step_p50_s, 5),
        "virtual_step_s": round(res_local.virtual_step_s, 6),
        "total_wall_s": round(time.monotonic() - t0, 4),
    }
    startup_speedup = cold["resolve_wall_s"] / max(warm["fetch_wall_s"], 1e-9)
    print(f"  cold local tuning {cold['resolve_wall_s']}s "
          f"({cold['sim_runs']} simulations) -> warm startup "
          f"{startup_speedup:.1f}x faster")
    warm["startup_speedup_vs_local"] = round(startup_speedup, 2)
    return warm, cold


@contextmanager
def counting_kernel_calls():
    """Count ``Plan1D.execute`` calls while the block runs; yields a
    one-element list holding the running count."""
    calls = [0]
    execute = Plan1D.execute

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return execute(self, *args, **kwargs)

    Plan1D.execute = counted
    try:
        yield calls
    finally:
        Plan1D.execute = execute


def count_steps(app, kernel_calls: list[int]) -> list[tuple[int, int, int]]:
    """Record each step's (engine runs, plan replays, kernel calls): the
    first two from the ambient registry, the last from the running
    ``kernel_calls`` count.  Wraps ``app.step``; returns the list it
    fills."""
    rows: list[tuple[int, int, int]] = []
    step = app.step

    def counted(index):
        reg = current_registry()
        before = [reg_total(reg, n) for n in STEP_COUNTERS]
        calls_before = kernel_calls[0]
        info = step(index)
        rows.append((*(int(reg_total(reg, n) - b)
                       for n, b in zip(STEP_COUNTERS, before)),
                     kernel_calls[0] - calls_before))
        return info

    app.step = counted
    return rows


def bench_apps_sweep(steps: int) -> list[dict]:
    """Phase 4: every app once, throughput + oracle error, and each
    steady step's engine runs and plan replays."""
    platform = get_platform(PLATFORM)
    out = []
    for name, cls in sorted(APPS.items()):
        cfg = AppConfig(shape=ProblemShape(APPS_N, APPS_N, APPS_N, APPS_P),
                        platform=platform, steps=steps, warmup=1)
        app = cls(cfg)
        with scoped_registry(MetricsRegistry()), counting_kernel_calls() as calls:
            rows = count_steps(app, calls)
            res = app.run()
        assert res.numerics_ok, f"{name}: error {res.numerics_error}"
        # steady steps: the ones the p50 covers (the first process step
        # may build the distributed plan and run the engine once)
        steady = rows[max(cfg.warmup, 1):]
        out.append({
            "app": name,
            "shape": [APPS_N] * 3,
            "p": APPS_P,
            "transforms_per_sec": round(res.transforms_per_sec, 2),
            "step_p50_s": round(res.step_p50_s, 5),
            "step_p95_s": round(res.step_p95_s, 5),
            "virtual_step_s": round(res.virtual_step_s, 6),
            "numerics_error": float(f"{res.numerics_error:.3e}"),
            "steady_step_sim_runs": [sims for sims, _, _ in steady],
            "steady_step_replays": [replays for _, replays, _ in steady],
            "steady_step_kernel_calls": [kernels for _, _, kernels in steady],
        })
        print(f"  {name}: {out[-1]['transforms_per_sec']} transforms/s, "
              f"err {out[-1]['numerics_error']:.1e}, steady steps "
              f"{out[-1]['steady_step_sim_runs']} engine runs, "
              f"{out[-1]['steady_step_replays']} replays, "
              f"{out[-1]['steady_step_kernel_calls']} kernel calls")
    return out


def bench_replay_vs_numpy() -> list[dict]:
    """Phase 5: a replayed transform vs numpy's on the same array, three
    rows per cube in :data:`REPLAY_SIZES` on the apps cell's p: c2c
    against ``numpy.fft.fftn``, r2c against ``rfftn`` and c2r against
    ``irfftn``, with the 1-D kernel each axis planned.  Replay and numpy
    calls alternate; each side reports its median over ``reps`` calls,
    ``reps`` shrinking with the cube's volume from :data:`NUMPY_REPS`
    to a floor of 5."""
    platform = get_platform(PLATFORM)
    rows = []
    for n in REPLAY_SIZES:
        shape = (n, n, n)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        real = np.ascontiguousarray(x.real)
        half = np.fft.rfftn(real)
        c2c = fft3d_plan(ProblemShape(n, n, n, APPS_P), platform)
        r2c = fft3d_plan(ProblemShape(n, n, n, APPS_P), platform, real=True)
        cases = (
            ("c2c", lambda: parallel_fft3d(x, APPS_P, platform),
             lambda: np.fft.fftn(x),
             {axis: c2c.plans[axis].kernel_name for axis in "zyx"}),
            ("r2c", lambda: parallel_rfft3d(real, APPS_P, platform),
             lambda: np.fft.rfftn(real),
             {axis: r2c.plans[axis].kernel_name for axis in "zyx"}),
            ("c2r", lambda: parallel_irfft3d(half, APPS_P, platform),
             lambda: np.fft.irfftn(half),
             {axis: r2c.inverse_plans[axis].kernel_name for axis in "zyx"}),
        )
        reps = max(5, NUMPY_REPS * APPS_N**3 // n**3)
        for transform, ours, theirs, kernels in cases:
            ours()  # the plan's first call of this direction runs the engine
            replay, numpy = [], []
            for _ in range(reps):
                for fn, times in ((ours, replay), (theirs, numpy)):
                    t0 = time.perf_counter()
                    fn()
                    times.append(time.perf_counter() - t0)
            replay_ms = statistics.median(replay) * 1e3
            numpy_ms = statistics.median(numpy) * 1e3
            rows.append({
                "transform": transform,
                "shape": list(shape),
                "p": APPS_P,
                "reps": reps,
                "kernels": kernels,
                "replay_ms": round(replay_ms, 4),
                "numpy_ms": round(numpy_ms, 4),
                "ratio": round(replay_ms / numpy_ms, 2),
            })
            print(f"  {n}^3 {transform} ({kernels['z']}): replayed transform "
                  f"{rows[-1]['replay_ms']}ms vs numpy "
                  f"{rows[-1]['numpy_ms']}ms -> {rows[-1]['ratio']}x")
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=12,
                    help="measured steps for the plan-reuse phase")
    ap.add_argument("--serve-steps", type=int, default=5,
                    help="measured steps for the serve/local phases")
    ap.add_argument("--budget", type=int, default=4,
                    help="tuning budget for the serve/local phases")
    ap.add_argument("--out", default="BENCH_apps.json")
    args = ap.parse_args()

    print("plan reuse: cold exhaustive planning vs wisdom-warm steady state")
    plan_reuse = bench_plan_reuse(args.steps)

    print("plan server: warm fetch vs cold local tuning")
    with tempfile.TemporaryDirectory(prefix="bench_apps_") as tmp:
        warm, cold = bench_serve_phases(Path(tmp), args.budget,
                                        args.serve_steps)

    print("apps sweep: all drivers")
    apps = bench_apps_sweep(args.serve_steps)

    print("replay vs numpy: one transform per cube")
    replay_vs_numpy = bench_replay_vs_numpy()

    payload = {
        "benchmark": "application workloads: plan reuse + serve-plane startup",
        "platform": PLATFORM,
        "plan_reuse": plan_reuse,
        "warm_plan_server": warm,
        "cold_local": cold,
        "apps": apps,
        "replay_vs_numpy": replay_vs_numpy,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"ok  ->  {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
