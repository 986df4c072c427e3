"""Steady benchmark: tuned grid cells, spectral app steps, plan-serve reads and writes.

Usage, from the repository root::

    python3 perfbench/run.py --workload cells --seed 1 --seconds 10 --trace 0

A run builds its inputs from ``--seed``, sets the workload up
:data:`SETUP_REPEATS` times from cold process caches (``setup_s`` is the
median), then runs a closed loop for ``--seconds`` and checks every
output.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Every time it
reports is calibrated against a reference timed next to it
(:mod:`perfbench.calibrate`), so host-speed drift cancels out.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
entry point of every layer in spans (:mod:`perfbench.layers`) and
reports per-layer self times and registry counters per operation
instead; its ``traced_op_p50_ms`` against the untraced ``op_p50_ms``
is the tracing overhead.  Workloads are described in
:mod:`perfbench.workloads` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: set-ups per run, each from cold process caches; ``setup_s`` is their median
SETUP_REPEATS = 15
#: floor on measured operations, whatever ``--seconds`` says
MIN_OPS = 20

#: per-layer registry counters: metric name -> registry family
COUNTERS = {
    "engine_runs": "sim_runs_total",
    "engine_handoffs": "sim_handoffs_total",
    "engine_probe_polls": "sim_probe_polls_total",
    "engine_wakeups": "sim_wakeups_total",
    "fft_plans_built": "fft_plans_built_total",
    "fft_wisdom_hits": "fft_wisdom_hits_total",
    "fft_kernel_builds": "fft_kernel_builds_total",
    "pool_items": "pool_items_total",
    "serve_plan_hits": "serve_plan_hits_total",
    "serve_plan_misses": "serve_plan_misses_total",
    "serve_jobs_enqueued": "serve_jobs_enqueued_total",
}


def counter_totals(reg) -> dict[str, float]:
    from repro.apps.driver import _registry_total

    return {name: _registry_total(reg, family) for name, family in COUNTERS.items()}


def measure(workload, seconds: float, reference,
            clock=None) -> tuple[list[float], list[float], int]:
    """Closed loop for ``seconds``: per-op wall times, the calibration
    references around them, and the failure count."""
    walls: list[float] = []
    refs: list[float] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_OPS or time.perf_counter() < deadline:
        refs.append(reference())
        span = clock.span("client") if clock is not None else nullcontext()
        t = time.perf_counter()
        try:
            with span:
                ok = workload.op(i)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        walls.append(time.perf_counter() - t)
        failed += not ok
        i += 1
    refs.append(reference())
    return walls, refs, failed


def run(args) -> dict:
    from perfbench import layers
    from perfbench.calibrate import REFERENCES, calibrated_ms
    from perfbench.workloads import WORKLOADS
    from repro.obs.registry import MetricsRegistry, scoped_registry

    clock = layers.LayerClock() if args.trace else None
    uninstall = layers.install(clock) if clock is not None else None
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    reg = MetricsRegistry()
    workload = WORKLOADS[args.workload](args.seed, tmp)
    if workload.pin_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    reference = REFERENCES[workload.calibration]()
    try:
        with scoped_registry(reg):
            setups, setup_refs = [], []
            for _ in range(SETUP_REPEATS):
                workload.close()  # tearing down the last set-up is not set-up
                setup_refs.append(reference())
                t = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - t)
            setup_refs.append(reference())
            workload.begin()
            before = counter_totals(reg)
            if clock is not None:
                clock.reset()
            walls, refs, failed = measure(workload, args.seconds, reference, clock)
            after = counter_totals(reg)
            if clock is not None:
                layer_s = dict(clock.self_s)
                layer_calls = dict(clock.calls)
            problems = workload.verify()
    finally:
        workload.close()
        reference.close()
        if uninstall is not None:
            uninstall()
        shutil.rmtree(tmp, ignore_errors=True)
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)

    ops = len(walls)
    op_ms = calibrated_ms(walls, refs, reference.nominal_ms)
    if args.trace:
        # calibrated ms per wall second, over the whole window
        scale = sum(op_ms) / sum(walls)
        metrics = {
            f"{layer}_self_ms": (layer_s.get(layer, 0.0) * scale / ops, "ms")
            for layer in layers.LAYERS
        }
        for layer in ("fft", "movers", "tune", "store"):
            metrics[f"{layer}_calls"] = (layer_calls.get(layer, 0) / ops, "count/op")
        for name in COUNTERS:
            metrics[name] = ((after[name] - before[name]) / ops, "count/op")
        metrics["traced_op_p50_ms"] = (statistics.median(op_ms), "ms")
    else:
        metrics = {
            "op_p50_ms": (statistics.median(op_ms), "ms"),
            # 1 / mean latency: the tail's weight without the p90's
            # run-to-run noise on a shared host
            "ops_per_s": (ops * 1e3 / sum(op_ms), "1/s"),
            "setup_s": (statistics.median(
                calibrated_ms(setups, setup_refs, reference.nominal_ms)) / 1e3, "s"),
        }
    return {
        "correct": failed == 0 and not problems,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("cells", "apps", "serve_read", "serve_write"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
