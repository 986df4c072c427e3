"""Distributed-dispatch chaos benchmark: write BENCH_dist.json.

Usage:  python tools/bench_dist.py [--budget B] [--out PATH]

Proves the ISSUE's distributed acceptance story end to end, with real
worker processes and a real SIGKILL:

1. **kill-one run** — a coordinator serves the grid to two spawned
   ``repro worker`` processes; once the run is warm (at least one cell
   done and a lease outstanding) one worker is SIGKILL'd.  Its leases
   expire and requeue; the surviving worker completes the grid.
2. **coordinator restart** — the process store is cleared (a "new process") and
   the same grid is requested again in dist mode against the same
   store.  Every cell resumes via store read-through: the dispatch seam
   is never entered, no coordinator is started, zero cells re-simulate.
3. **determinism check** — the post-kill results are compared
   cell-by-cell against a fault-free serial run (byte-identical dicts).

The kill-one run also exercises the telemetry plane (DESIGN.md §5.12):
``GET /metrics`` is scraped mid-run and must parse as Prometheus text,
and after the grid drains the coordinator writes the merged fleet trace
+ final exposition under ``--trace-dir`` (CI uploads both as
artifacts).  The JSON records wall times, lease/requeue/duplicate
counters, the scraped ``dist_*`` counters, fleet-trace span/host
counts, and the zero-re-simulation proof so the trajectory is
comparable across commits.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.bench import clear_cache  # noqa: E402
from repro.bench.runner import cell_key, cell_to_dict  # noqa: E402
from repro.dist import Coordinator, DistConfig, GridJob, fetch_text  # noqa: E402
from repro.dist.fleet import launch_workers  # noqa: E402
from repro.exec import ResultStore, evaluate_cells  # noqa: E402
from repro.obs import load_trace, parse_prometheus  # noqa: E402
from repro.obs.registry import scoped_registry  # noqa: E402

PLATFORM = "UMD-Cluster"
CELLS = [(4, 32), (8, 32), (4, 48), (8, 48), (4, 64), (8, 64)]
LEASE_TTL = 2.0


def kill_one_run(cells, budget, store, trace_dir):
    """Coordinator + 2 workers, SIGKILL one mid-run; returns a report.

    The coordinator's registry is scoped to this run, ``/metrics`` is
    scraped right after the kill (a live mid-run exposition), and the
    merged fleet trace + final exposition land under ``trace_dir``.
    """
    todo = [cell_key(PLATFORM, p, n, budget) for p, n in cells]
    job = GridJob(
        platform=PLATFORM, todo=todo,
        labels=[f"p{p} N{n}" for p, n in cells],
        lease_ttl=LEASE_TTL,
    )
    scrape = {}
    with scoped_registry():
        coord = Coordinator(job, DistConfig(), store=store)
        url = coord.start()
        fleet = launch_workers(url, "local,local", worker_jobs=1)
        killed = False
        t0 = time.perf_counter()
        try:
            while not coord.queue.finished:
                time.sleep(0.1)
                coord.tick()
                fleet.reap()
                counts = coord.queue.counts()
                if (not killed and counts["done"] >= 1
                        and counts["leased"] >= 1 and fleet.alive() == 2):
                    fleet.procs[0].send_signal(signal.SIGKILL)
                    killed = True
                    print(f"  killed worker pid {fleet.procs[0].pid} "
                          f"({counts['done']}/{counts['total']} done)")
                    scrape = parse_prometheus(fetch_text(url, "/metrics"))
                # workers exit the moment the last cell lands, so an
                # empty fleet is only fatal while cells remain
                if fleet.alive() == 0 and not coord.queue.finished:
                    raise SystemExit("ERROR: every worker died; grid stuck")
        finally:
            fleet.terminate()
            coord.stop()
        wall = time.perf_counter() - t0
        artifacts = coord.write_fleet_trace(trace_dir)
    results = coord.outcome()
    assert all(r is not None for r in results), "grid left holes"
    final = parse_prometheus(Path(artifacts["metrics"]).read_text())
    payload = json.loads(Path(artifacts["trace"]).read_text())
    hosts = [e["args"]["name"] for e in payload["traceEvents"]
             if e.get("name") == "process_name"]
    assert load_trace(artifacts["trace"]).spans is not None
    counts = coord.queue.counts()
    return results, {
        "wall_s": round(wall, 3),
        "worker_killed": killed,
        "workers_seen": len(coord.workers_seen),
        "leases": counts["leases"],
        "requeues": counts["requeues"],
        "duplicates": counts["duplicates"],
        "cells_done": counts["done"],
        "telemetry": {
            "midrun_scrape": {k: v for k, v in sorted(scrape.items())
                              if k.startswith("dist_")},
            "final_completions": final.get("dist_completions_total"),
            "fleet_spans": artifacts["spans"],
            "fleet_hosts": sorted(hosts),
            "fleet_trace": str(artifacts["trace"]),
            "fleet_metrics": str(artifacts["metrics"]),
        },
    }


def restart_run(cells, budget, store):
    """Re-request the grid dist-mode with a warm store; count dispatches."""
    clear_cache()  # a restarted coordinator process has an empty process store
    import repro.dist as dist_pkg

    calls = []
    real = dist_pkg.dist_map

    def spy(platform, todo, *args, **kwargs):
        calls.append(len(todo))
        return real(platform, todo, *args, **kwargs)

    dist_pkg.dist_map = spy
    t0 = time.perf_counter()
    try:
        results = evaluate_cells(
            PLATFORM, cells, max_evaluations=budget, store=store,
            dispatch="dist", dist=DistConfig(workers="local,local"),
        )
    finally:
        dist_pkg.dist_map = real
    wall = time.perf_counter() - t0
    return results, {
        "wall_s": round(wall, 3),
        "cells_resumed_from_store": len(results),
        "cells_re_simulated": sum(calls),
        "dispatch_entered": bool(calls),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--budget", type=int, default=8,
                    help="tuning evaluations per cell (default 8)")
    ap.add_argument("--out", default=str(ROOT / "BENCH_dist.json"))
    ap.add_argument("--trace-dir", default=None, metavar="DIR",
                    help="where the merged fleet trace + final /metrics "
                         "exposition are written (default: a temp dir; "
                         "CI passes a workspace path and uploads both)")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_dist_") as tmp:
        store = ResultStore(Path(tmp) / "store")
        trace_dir = Path(args.trace_dir or Path(tmp) / "fleet")

        print(f"kill-one run: {len(CELLS)} cells, 2 workers, "
              f"lease TTL {LEASE_TTL}s")
        clear_cache()
        dist_cells, kill_report = kill_one_run(
            CELLS, args.budget, store, trace_dir)
        telem = kill_report["telemetry"]
        print(f"  completed in {kill_report['wall_s']}s "
              f"({kill_report['requeues']} requeue(s), "
              f"{kill_report['duplicates']} duplicate(s))")
        print(f"  fleet trace: {telem['fleet_spans']} span(s) from "
              f"{len(telem['fleet_hosts'])} host(s) -> "
              f"{telem['fleet_trace']}")

        if telem["final_completions"] != kill_report["cells_done"]:
            print("ERROR: dist_completions_total "
                  f"{telem['final_completions']} != cells done "
                  f"{kill_report['cells_done']}", file=sys.stderr)
            return 1

        print("coordinator restart against the warm store")
        resumed, restart_report = restart_run(CELLS, args.budget, store)
        if restart_report["cells_re_simulated"] != 0:
            print("ERROR: restart re-simulated cells", file=sys.stderr)
            return 1
        if [cell_to_dict(c) for c in resumed] != \
                [cell_to_dict(c) for c in dist_cells]:
            print("ERROR: restart results differ from the original run",
                  file=sys.stderr)
            return 1
        print(f"  resumed {restart_report['cells_resumed_from_store']} "
              f"cell(s) in {restart_report['wall_s']}s, "
              f"0 re-simulated")

        print("determinism check vs a serial local run")
        clear_cache()
        serial = evaluate_cells(
            PLATFORM, CELLS, jobs=1, max_evaluations=args.budget,
        )
        identical = [cell_to_dict(c) for c in serial] == \
            [cell_to_dict(c) for c in dist_cells]
        if not identical:
            print("ERROR: dist results differ from serial run",
                  file=sys.stderr)
            return 1

    payload = {
        "benchmark": "distributed grid: kill-one-worker + restart resume",
        "platform": PLATFORM,
        "cells": [list(c) for c in CELLS],
        "budget": args.budget,
        "lease_ttl_s": LEASE_TTL,
        "host_cores": os.cpu_count(),
        "kill_one_run": kill_report,
        "coordinator_restart": restart_report,
        "results_identical_to_serial": identical,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"ok  ->  {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
