"""Perf-smoke guard: fail CI when the smoke benchmark regresses.

Usage:  python tools/check_perf_smoke.py [--fresh BENCH_smoke.json]
                                         [--baseline PATH]
                                         [--counter-tol 0.05]
                                         [--wall-tol 3.0]

Compares a freshly produced BENCH_smoke.json (``tools/bench_smoke.py``)
against the committed baseline and enforces two kinds of bounds:

* **Scheduler counters** (``scheduler_handoffs``, ``scheduler_probe_polls``,
  ``scheduler_wakeups``) are deterministic functions of the codebase —
  the same grid always schedules the same way — so the fresh run may not
  exceed the baseline by more than ``--counter-tol`` (default 5%, pure
  headroom for intentional small churn).  *Decreases* are improvements
  and always pass; when one lands, refresh the baseline in the same PR
  so the guard tightens behind it.

* **Wall seconds** vary with host and load, so ``wall_s`` only guards
  against catastrophic slowdowns: the fresh wall must stay under
  ``--wall-tol`` times the baseline (default 3x — loose enough for a CI
  runner vs a laptop, tight enough to catch an accidental O(n) -> O(n^2)
  in the scheduler).

* **Metrics-registry overhead** (DESIGN.md §5.12): when a fresh
  ``BENCH_obs.json`` (``tools/bench_obs.py``) is present, its
  ``registry`` measurement — the bench-smoke grid with the registry
  disabled vs enabled — must stay within ``--registry-tol`` percent
  (default 5%).  The registry's hot path is a handful of dict updates
  per pool item, so a breach means instrumentation crept into an inner
  loop.  A missing ``BENCH_obs.json`` skips the check (the counter and
  wall guards above never require it).

* **Application workloads** (DESIGN.md §5.15): when a fresh
  ``BENCH_apps.json`` (``tools/bench_apps.py``) is present, four
  checks run.  The plan-reuse speedup must stay >= ``--apps-speedup``
  (default 1.5x — a wall-clock *ratio* on one host, so it transfers
  across hosts).  The warm plan-server steady-state *virtual*
  throughput (simulated transforms per simulated second — a
  deterministic function of the tuned params and pipeline code, like
  the scheduler counters) may not drop more than ``--apps-tol``
  (default 5%) below the committed baseline.  And the warm-plan
  steady-state *wall* throughput only guards catastrophic slowdowns:
  it may not drop below ``1 / --wall-tol`` of the committed baseline
  (throughput is inverse wall, so the cross-host slack applies
  reciprocally).  Last, every app's steady steps must run the engine
  exactly zero times (``steady_step_sim_runs``) and make exactly three
  1-D kernel calls per plan replay (``steady_step_kernel_calls``, one
  per axis on the whole array): they replay their cached distributed
  plan's timeline, deterministic counts, so the bounds are exact.  A
  missing ``BENCH_apps.json`` skips the checks.

The baseline is read from ``git show HEAD:BENCH_smoke.json`` when
available (so running the guard after regenerating the file still
compares against what is committed), falling back to ``--baseline``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COUNTERS = (
    "scheduler_handoffs",
    "scheduler_probe_polls",
    "scheduler_wakeups",
)


def load_baseline(path: Path) -> tuple[dict, str]:
    """The committed baseline: git HEAD's copy if possible, else the file."""
    try:
        proc = subprocess.run(
            ["git", "show", f"HEAD:{path.name}"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if proc.returncode == 0 and proc.stdout.strip():
            return json.loads(proc.stdout), f"git HEAD:{path.name}"
    except (OSError, ValueError):
        pass
    return json.loads(path.read_text()), str(path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fresh", default=str(ROOT / "BENCH_smoke.json"),
                    help="freshly generated smoke numbers to check")
    ap.add_argument("--baseline", default=str(ROOT / "BENCH_smoke.json"),
                    help="committed baseline (default: the git HEAD copy "
                         "of BENCH_smoke.json, falling back to this path)")
    ap.add_argument("--counter-tol", type=float, default=0.05, metavar="F",
                    help="allowed fractional increase in scheduler "
                         "counters (default 0.05)")
    ap.add_argument("--wall-tol", type=float, default=3.0, metavar="F",
                    help="allowed wall_s multiple of the baseline "
                         "(default 3.0; cross-host guard)")
    ap.add_argument("--obs", default=str(ROOT / "BENCH_obs.json"),
                    help="fresh observability numbers; the registry "
                         "overhead check is skipped when absent")
    ap.add_argument("--registry-tol", type=float, default=5.0, metavar="PCT",
                    help="allowed metrics-registry wall overhead in "
                         "percent (default 5.0)")
    ap.add_argument("--apps", default=str(ROOT / "BENCH_apps.json"),
                    help="fresh application-workload numbers; the apps "
                         "checks are skipped when absent")
    ap.add_argument("--apps-speedup", type=float, default=1.5, metavar="F",
                    help="required plan-reuse speedup (default 1.5)")
    ap.add_argument("--apps-tol", type=float, default=0.05, metavar="F",
                    help="allowed fractional drop in warm-plan virtual "
                         "throughput vs baseline (default 0.05)")
    args = ap.parse_args(argv)

    try:
        fresh = json.loads(Path(args.fresh).read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read fresh numbers {args.fresh!r}: {exc}",
              file=sys.stderr)
        return 2
    try:
        base, base_src = load_baseline(Path(args.baseline))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read baseline {args.baseline!r}: {exc}",
              file=sys.stderr)
        return 2

    failures = []
    for key in COUNTERS:
        if key not in base or key not in fresh:
            continue
        limit = base[key] * (1.0 + args.counter_tol)
        status = "OK" if fresh[key] <= limit else "FAIL"
        print(f"{status}: {key}: {fresh[key]} vs baseline {base[key]} "
              f"(limit {limit:.0f})")
        if fresh[key] > limit:
            failures.append(
                f"{key} regressed: {fresh[key]} > {base[key]} "
                f"* {1 + args.counter_tol:g}"
            )
    if "wall_s" in base and "wall_s" in fresh:
        limit = base["wall_s"] * args.wall_tol
        status = "OK" if fresh["wall_s"] <= limit else "FAIL"
        print(f"{status}: wall_s: {fresh['wall_s']} vs baseline "
              f"{base['wall_s']} (limit {limit:.3f})")
        if fresh["wall_s"] > limit:
            failures.append(
                f"wall_s regressed: {fresh['wall_s']} > {base['wall_s']} "
                f"* {args.wall_tol:g}"
            )
    obs_path = Path(args.obs)
    if obs_path.exists():
        try:
            registry = json.loads(obs_path.read_text()).get("registry")
        except (OSError, ValueError) as exc:
            print(f"error: cannot read obs numbers {args.obs!r}: {exc}",
                  file=sys.stderr)
            return 2
        if registry is not None:
            pct = registry["overhead_pct"]
            status = "OK" if pct <= args.registry_tol else "FAIL"
            print(f"{status}: registry overhead: {pct:+.1f}% "
                  f"(limit {args.registry_tol:g}%, "
                  f"off {registry['off_s']}s on {registry['on_s']}s)")
            if pct > args.registry_tol:
                failures.append(
                    f"metrics registry overhead {pct:+.1f}% exceeds "
                    f"{args.registry_tol:g}% of bench-smoke wall"
                )
    else:
        print(f"skip: registry overhead ({args.obs} not present)")
    apps_path = Path(args.apps)
    if apps_path.exists():
        try:
            apps = json.loads(apps_path.read_text())
            apps_base, apps_base_src = load_baseline(apps_path)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read apps numbers {args.apps!r}: {exc}",
                  file=sys.stderr)
            return 2
        # 1. host-independent: plan-reuse speedup floor.
        speedup = apps["plan_reuse"]["speedup"]
        status = "OK" if speedup >= args.apps_speedup else "FAIL"
        print(f"{status}: apps plan-reuse speedup: {speedup}x "
              f"(floor {args.apps_speedup:g}x)")
        if speedup < args.apps_speedup:
            failures.append(
                f"plan-reuse speedup {speedup}x below {args.apps_speedup:g}x"
            )
        # 2. deterministic: warm-plan virtual throughput within 5% of
        # the committed baseline (simulated time has no host noise).
        vtps = apps["warm_plan_server"]["virtual_transforms_per_sec"]
        base_vtps = apps_base["warm_plan_server"]["virtual_transforms_per_sec"]
        floor = base_vtps * (1.0 - args.apps_tol)
        status = "OK" if vtps >= floor else "FAIL"
        print(f"{status}: apps warm virtual throughput: {vtps} vs baseline "
              f"{base_vtps} (floor {floor:.2f})")
        if vtps < floor:
            failures.append(
                f"warm-plan virtual throughput regressed >"
                f"{100 * args.apps_tol:g}%: {vtps} < {base_vtps}"
            )
        # 3. cross-host: warm-plan wall throughput vs committed baseline
        # (throughput is inverse wall, so the wall slack applies as 1/x).
        tps = apps["warm_plan_server"]["transforms_per_sec"]
        base_tps = apps_base["warm_plan_server"]["transforms_per_sec"]
        floor = base_tps / args.wall_tol
        status = "OK" if tps >= floor else "FAIL"
        print(f"{status}: apps warm steady throughput: {tps} vs baseline "
              f"{base_tps} (floor {floor:.2f})")
        if tps < floor:
            failures.append(
                f"warm-plan steady throughput regressed: {tps} < "
                f"{base_tps} / {args.wall_tol:g}"
            )
        # 4. deterministic: steady app steps replay their cached plans'
        # kept timelines, run the engine exactly zero times and make
        # exactly one 1-D kernel call per axis per replay.
        for app in apps["apps"]:
            runs = app.get("steady_step_sim_runs")
            ok = bool(runs) and not any(runs)
            print(f"{'OK' if ok else 'FAIL'}: apps {app['app']} steady engine "
                  f"runs per step: {runs} (must be 0)")
            if not ok:
                failures.append(
                    f"{app['app']} steady steps ran the engine: {runs}"
                )
            kernels = app.get("steady_step_kernel_calls")
            want = [3 * n for n in app.get("steady_step_replays", [])]
            ok = bool(kernels) and kernels == want
            print(f"{'OK' if ok else 'FAIL'}: apps {app['app']} steady kernel "
                  f"calls per step: {kernels} (must be {want})")
            if not ok:
                failures.append(
                    f"{app['app']} steady steps made {kernels} kernel calls, "
                    f"not 3 per replay {want}"
                )
        print(f"apps baseline: {apps_base_src}")
    else:
        print(f"skip: application workloads ({args.apps} not present)")
    print(f"baseline: {base_src}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        print("perf smoke guard failed; if the regression is intended, "
              "regenerate BENCH_smoke.json in the same PR", file=sys.stderr)
        return 1
    print("perf smoke guard passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
