"""Measure the execution-layer speedup and write BENCH_exec.json.

Usage:  python tools/bench_exec.py [--jobs N] [--budget B] [--out PATH]
                                   [--faults SPEC]

Times the Table-2a quick grid (the ``REPRO_BENCH_SCALE=quick`` cell
set) twice, end to end and from a cold start each time (memo and FFT
wisdom cleared, one warmup evaluation discarded to pay import/planning
costs outside the timed region), both on the one simulator engine:

1. **serial path** — every cell evaluated in this process (``jobs=1``);
2. **sharded path** — the grid sharded over ``--jobs`` worker
   processes via :func:`repro.exec.evaluate_cells`.

Both paths must produce identical ``CellResult`` values (times, params,
evaluations, overlap metrics) and identical scheduler counts
(``sim_handoffs_total``, ``sim_probe_polls_total``: pool items ship
their registry counts back to the parent); the script exits 1 when
either differs.  ``--faults SPEC`` applies a deterministic fault plan to
both paths; the identity requirements are unchanged.

The JSON records wall seconds, the speedup, the scheduler's handoff /
probe counters, a per-phase host-time breakdown (virtual scheduling vs
real-payload data movement), and — when a previously committed
BENCH_exec.json is present — the cross-commit speedup against its
recorded sharded wall.  It also carries forward the wall of the
harness as it was before the execution layer and the engine fast paths
existed (``historic_seed_wall_s``, measured on the same host), and the
sharded path's speedup over it.
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

os.environ.setdefault("REPRO_BENCH_SCALE", "quick")

from repro.bench import cells_for, clear_cache  # noqa: E402
from repro.bench.runner import cell_to_dict  # noqa: E402
from repro.exec import default_jobs, evaluate_cells  # noqa: E402
from repro.fft.wisdom import GLOBAL_WISDOM  # noqa: E402
from repro.obs import scoped_registry  # noqa: E402

PLATFORM = "UMD-Cluster"


def timed_grid(cells, budget, jobs):
    """Evaluate the grid cold; returns (cells, wall_s, counts), where
    ``counts`` holds the grid's scheduler handoffs and probe polls."""
    clear_cache()
    GLOBAL_WISDOM.forget()
    with scoped_registry() as reg:
        t0 = time.perf_counter()
        out = evaluate_cells(PLATFORM, cells, jobs=jobs, max_evaluations=budget)
        wall = time.perf_counter() - t0
    counts = {
        "handoffs": int(reg.total("sim_handoffs_total")),
        "probe_polls": int(reg.total("sim_probe_polls_total")),
    }
    return out, wall, counts


def phase_breakdown(repeat=3):
    """Host-time attribution for one representative cell.

    Separates the scheduler+model cost (virtual run: no payload, pure
    event processing) from the real-payload extra (FFT kernels plus the
    vectorized pack/unpack movers).
    """
    import numpy as np

    from repro.core.api import run_case
    from repro.core.params import ProblemShape
    from repro.machine.platforms import get_platform

    platform = get_platform(PLATFORM)
    n, p = 64, 8
    shape = ProblemShape(n, n, n, p)
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    run_case("NEW", platform, shape)  # warmup (planner caches)
    t0 = time.perf_counter()
    for _ in range(repeat):
        run_case("NEW", platform, shape)
    virt = (time.perf_counter() - t0) / repeat
    run_case("NEW", platform, shape, global_array=arr)
    t0 = time.perf_counter()
    for _ in range(repeat):
        run_case("NEW", platform, shape, global_array=arr)
    real = (time.perf_counter() - t0) / repeat
    return {
        "cell": {"variant": "NEW", "n": n, "p": p},
        "virtual_pipeline_s": round(virt, 4),
        "real_payload_s": round(real, 4),
        "payload_extra_s": round(max(real - virt, 0.0), 4),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=None,
                    help="workers for the sharded path (default: $REPRO_JOBS/all cores)")
    ap.add_argument("--budget", type=int, default=40,
                    help="tuning evaluations per cell (default 40 = quick scale)")
    ap.add_argument("--faults", default=None, metavar="SPEC",
                    help="run both paths under a deterministic fault plan "
                         "(results must still be identical)")
    ap.add_argument("--repeat", type=int, default=2, metavar="R",
                    help="time each path R times and record the best wall "
                         "(standard noise damping; all walls are listed)")
    ap.add_argument("--out", default=str(ROOT / "BENCH_exec.json"))
    args = ap.parse_args(argv)

    jobs = default_jobs(args.jobs if args.jobs is not None else 0)
    cells = cells_for("small")

    # Cross-commit reference: the walls recorded by the *git-committed*
    # JSON (so reruns in a dirty working tree keep comparing against the
    # same baseline, not against their own previous output).  Falls back
    # to the on-disk file outside a git checkout.
    committed = None
    out_path = Path(args.out)
    prior_text = None
    try:
        import subprocess

        prior_text = subprocess.run(
            ["git", "show", f"HEAD:{out_path.name}"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout or None
    except OSError:
        prior_text = None
    if prior_text is None and out_path.exists():
        prior_text = out_path.read_text()
    if prior_text:
        try:
            prior = json.loads(prior_text)
            committed = {
                # files written before the one-engine rework name the
                # sharded path "new_path" and the historic seed wall
                # "vs_committed.seed_wall_s"
                "historic_seed_wall_s": prior.get("historic_seed_wall_s")
                or prior["vs_committed"]["seed_wall_s"],
                "sharded_wall_s": prior.get("sharded_path",
                                            prior.get("new_path"))["wall_s"],
            }
        except (ValueError, KeyError, TypeError):
            committed = None

    from contextlib import nullcontext

    from repro.faults import injected_faults

    fault_ctx = injected_faults(args.faults) if args.faults else nullcontext()
    with fault_ctx:
        # Warmup: pay one-time numpy/planner costs outside both timed
        # phases.
        clear_cache()
        evaluate_cells(PLATFORM, cells[:1], jobs=1, max_evaluations=4)

        repeat = max(args.repeat, 1)
        base_walls = []
        for _ in range(repeat):
            base_cells, wall, base_stats = timed_grid(
                cells, args.budget, jobs=1
            )
            base_walls.append(round(wall, 3))
        base_wall = min(base_walls)
        print(f"serial path (jobs=1): {base_wall:.2f}s "
              f"best of {base_walls} ({base_stats['handoffs']} handoffs)")

        new_walls = []
        for _ in range(repeat):
            new_cells, wall, new_stats = timed_grid(
                cells, args.budget, jobs=jobs
            )
            new_walls.append(round(wall, 3))
        new_wall = min(new_walls)
        print(f"sharded path (jobs={jobs}): {new_wall:.2f}s "
              f"best of {new_walls} ({new_stats['handoffs']} handoffs)")
        phases = phase_breakdown()

    if [cell_to_dict(c) for c in base_cells] != [cell_to_dict(c) for c in new_cells]:
        print("ERROR: paths disagree on cell results", file=sys.stderr)
        return 1
    if new_stats != base_stats:
        print(f"ERROR: paths disagree on scheduler counts: serial "
              f"{base_stats}, sharded {new_stats}", file=sys.stderr)
        return 1

    payload = {
        "benchmark": "table2a quick grid, end-to-end evaluate_cells",
        "platform": PLATFORM,
        "cells": [list(c) for c in cells],
        "budget": args.budget,
        "host_cores": os.cpu_count(),
        "faults": args.faults or "",
        "serial_path": {
            "jobs": 1, "wall_s": round(base_wall, 3), "walls_s": base_walls,
            **base_stats,
        },
        "sharded_path": {
            "jobs": jobs, "wall_s": round(new_wall, 3), "walls_s": new_walls,
            **new_stats,
        },
        "phase_breakdown": phases,
        "speedup": round(base_wall / new_wall, 3),
        "results_identical": True,
        "counts_identical": True,
    }
    if committed is not None:
        seed_wall = committed["historic_seed_wall_s"]
        payload["historic_seed_wall_s"] = seed_wall
        payload["speedup_vs_historic_seed"] = round(seed_wall / new_wall, 3)
        payload["vs_committed"] = {
            "sharded_wall_s": committed["sharded_wall_s"],
            "speedup_vs_committed": round(
                committed["sharded_wall_s"] / new_wall, 3
            ),
        }
    if (os.cpu_count() or 1) < 4:
        payload["note"] = (
            "host has fewer than 4 cores: grid sharding contributes "
            "little; on a >=4-core box the sharded path spreads the grid "
            "over more workers (byte-identical results, enforced by "
            "tests/exec)"
        )
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"speedup: {payload['speedup']}x  ->  {args.out}")
    if committed is not None:
        print(f"{payload['speedup_vs_historic_seed']}x over the historic "
              f"seed wall, {payload['vs_committed']['speedup_vs_committed']}x "
              f"over the committed sharded path")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
