"""Measure the observability layer's overhead; writes BENCH_obs.json.

Usage:  python tools/bench_obs.py [--repeats N] [--out PATH]

The tracer's design contract is "zero cost when off, cheap when on":
instrumented layers pay one ``current_tracer()`` lookup plus an
``is None`` check per construct when tracing is disabled, and only
read (never advance) virtual clocks when it is enabled
(``tests/obs/test_zero_overhead.py`` enforces the bit-identical part).
This benchmark quantifies the wall-clock side on two workloads:

1. **single run** — one full ``run_case`` pipeline simulation, where an
   enabled tracer also records every per-rank event as a span
   (``rank_spans=True``, the ``repro run --trace`` path);
2. **sweep** — a tile-count parameter sweep (hundreds of inner
   simulations), traced the way ``repro sweep --trace`` does it
   (``rank_spans=False``: evaluation spans only).

Each workload is timed with tracing off and on (best of ``--repeats``,
cold caches per repeat) and the overhead is reported as a percentage.
Every repeat runs under a fresh scoped metrics registry, which counts
the same either way; ``counter_total`` sums the counters of the kept
traced repeat.

A third workload times the **metrics registry** (DESIGN.md §5.12): the
bench-smoke grid evaluated with the registry disabled
(``set_enabled(False)``, every helper a no-op) vs enabled (the default;
pool/scheduler counters land in a scoped registry).  The guard in
``tools/check_perf_smoke.py`` bounds that overhead at ≤5% of wall.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.bench import clear_cache  # noqa: E402
from repro.core.api import run_case  # noqa: E402
from repro.core.params import ProblemShape  # noqa: E402
from repro.exec import evaluate_cells  # noqa: E402
from repro.fft.wisdom import GLOBAL_WISDOM  # noqa: E402
from repro.machine import UMD_CLUSTER  # noqa: E402
from repro.obs import Tracer, tracing  # noqa: E402
from repro.obs.registry import scoped_registry, set_enabled  # noqa: E402
from repro.tuning.gridsearch import sweep_parameter  # noqa: E402

SHAPE = ProblemShape(128, 128, 128, 8)
SWEEP_SHAPE = ProblemShape(64, 64, 64, 4)
#: inner iterations per timed sample — the simulator finishes one run in
#: ~10ms of wall time, so a single run would drown in timer noise
INNER = 20
#: the bench-smoke grid (tools/bench_smoke.py), the registry workload
SMOKE_GRID = {"UMD-Cluster": [(4, 32), (8, 32)], "Hopper": [(4, 32)]}
SMOKE_BUDGET = 6
SMOKE_INNER = 10


def single_run():
    for _ in range(INNER):
        run_case("NEW", UMD_CLUSTER, SHAPE)


def sweep():
    for _ in range(INNER):
        sweep_parameter("NEW", UMD_CLUSTER, SWEEP_SHAPE, "T")


def best_of(fn, repeats, tracer_factory=None):
    """Best wall time over ``repeats`` cold runs; returns (secs, tracer,
    registry) of the best one."""
    best = None
    for _ in range(repeats):
        GLOBAL_WISDOM.forget()
        tr = tracer_factory() if tracer_factory is not None else None
        with scoped_registry() as reg:
            t0 = time.perf_counter()
            if tr is not None:
                with tracing(tr):
                    fn()
            else:
                fn()
            wall = time.perf_counter() - t0
        if best is None or wall < best[0]:
            best = (wall, tr, reg)
    return best


def measure(name, fn, repeats, rank_spans):
    off, _, _ = best_of(fn, repeats)
    on, tr, reg = best_of(fn, repeats,
                          lambda: Tracer(rank_spans=rank_spans))
    return {
        "workload": name,
        "rank_spans": rank_spans,
        "off_s": round(off, 4),
        "on_s": round(on, 4),
        "overhead_pct": round(100.0 * (on - off) / off, 2),
        "spans_recorded": len(tr.spans),
        "counter_total": round(sum(
            value for fam in reg.snapshot().values()
            if fam["kind"] == "counter" for _labels, value in fam["samples"]
        )),
    }


def smoke_grid():
    for _ in range(SMOKE_INNER):
        for platform, cells in SMOKE_GRID.items():
            clear_cache()
            evaluate_cells(platform, cells, max_evaluations=SMOKE_BUDGET)


def measure_registry(repeats):
    """Best smoke-grid wall with the registry disabled vs enabled."""

    def timed(enabled):
        best = None
        for _ in range(repeats):
            prev = set_enabled(enabled)
            try:
                t0 = time.perf_counter()
                with scoped_registry():
                    smoke_grid()
                wall = time.perf_counter() - t0
            finally:
                set_enabled(prev)
            if best is None or wall < best:
                best = wall
        return best

    off = timed(False)
    on = timed(True)
    # one more enabled pass, kept, to report what the registry saw
    prev = set_enabled(True)
    try:
        with scoped_registry() as reg:
            smoke_grid()
    finally:
        set_enabled(prev)
    snap = reg.snapshot()
    return {
        "workload": "registry: bench-smoke grid "
                    f"x{SMOKE_INNER} (budget {SMOKE_BUDGET})",
        "off_s": round(off, 4),
        "on_s": round(on, 4),
        "overhead_pct": round(100.0 * (on - off) / off, 2),
        "metric_families": len(snap),
        "samples_recorded": sum(len(rec["samples"])
                                for rec in snap.values()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3,
                    help="repeats per configuration; best is kept (default 3)")
    ap.add_argument("--out", default=str(ROOT / "BENCH_obs.json"))
    args = ap.parse_args(argv)

    # Warmup: numpy/planner first-touch costs stay out of every sample.
    single_run()

    rows = [
        measure(f"single run NEW N={SHAPE.nx} p={SHAPE.p}",
                single_run, args.repeats, rank_spans=True),
        measure(f"T sweep NEW N={SWEEP_SHAPE.nx} p={SWEEP_SHAPE.p}",
                sweep, args.repeats, rank_spans=False),
    ]
    for row in rows:
        print(f"{row['workload']}: off {row['off_s']}s, on {row['on_s']}s "
              f"({row['overhead_pct']:+.1f}%, {row['spans_recorded']} spans)")

    registry = measure_registry(args.repeats)
    print(f"{registry['workload']}: off {registry['off_s']}s, "
          f"on {registry['on_s']}s ({registry['overhead_pct']:+.1f}%, "
          f"{registry['samples_recorded']} samples)")

    payload = {
        "benchmark": "tracing + metrics-registry overhead, off vs on "
                     "(best of repeats)",
        "repeats": args.repeats,
        "host_cores": os.cpu_count(),
        "workloads": rows,
        "registry": registry,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
