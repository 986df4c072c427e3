"""Assemble EXPERIMENTS.md from the benchmark result files.

Usage:  python tools/assemble_experiments.py

Reads the narrative template below, inlines every referenced
``benchmarks/results/<name>.txt`` verbatim (as fenced code), and writes
EXPERIMENTS.md at the repository root.  Run after
``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"

TEMPLATE = """# EXPERIMENTS — paper vs. measured, every table and figure

All "ours" numbers are **virtual seconds** from the calibrated machine
models (DESIGN.md §2, §5); the reproduction target is the *shape* of each
result — orderings, ratios, trends, crossovers — not absolute seconds.
Absolute calibration is nevertheless decent: `python -m repro.bench.calibrate`
reports the simulated FFTW baseline and paper-configured NEW within a
~1.1x geometric-mean factor of the published Table 2 values across all
48 comparisons.

Regenerate everything with:

    pytest benchmarks/ --benchmark-only      # writes benchmarks/results/*.txt
    python tools/assemble_experiments.py     # rebuilds this file

## Table 2 — tuned 3-D FFT time (FFTW / NEW / TH)

Shape targets: NEW wins every cell against both FFTW and TH; TH hovers
near (sometimes below) FFTW.

@@table2a_umd@@
@@table2b_hopper@@
@@table2c_hopper_large@@

## Figure 7 — speedup over FFTW

Paper's headline bands: UMD 1.23-1.68x, Hopper small-scale 1.10-1.40x,
Hopper large-scale 1.48-1.76x.  Trend targets reproduced: on UMD p=16
beats p=32 (communication grows past the overlappable compute at p=32);
on Hopper p=16 is *worse* than p=32 (the fast Gemini fabric leaves too
little communication to hide at p=16); the largest wins appear at large
scale where the all-to-all dominates.

@@fig7a_speedup_umd@@
@@fig7b_speedup_hopper@@
@@fig7c_speedup_hopper_large@@

## Figure 8 — per-step breakdown (NEW / NEW-0 / TH / TH-0)

Shape targets (§5.2.1): NEW-0's Wait approximates the raw exchange time;
NEW shrinks Wait several-fold by progressing during all four
overlappable steps; TH keeps a larger Wait (no progression during
Unpack/FFTx) and pays more for Transpose (no guru rearrangement), Pack
and FFTx (no loop tiling).

@@fig8_breakdown_umdcluster_p32_n640@@
@@fig8_breakdown_hopper_p32_n640@@
@@fig8_breakdown_hopper_p256_n2048@@

## Figure 5 — execution time over 200 random configurations

The paper measures a ~3x spread (0.16-0.48 s) at p=16, 256^3 on
UMD-Cluster with FFTz/Transpose excluded — the case for auto-tuning.
Our model reproduces a wide, heavy-tailed distribution over the same
space (spread is below the paper's 3x because the analytic cache model
is kinder to terrible sub-tile shapes than a real Xeon).

@@fig5_random_cdf@@

## Section 5.3.1 — Nelder-Mead vs random search

Paper: the NM result ranks in the first percentile of the random
distribution, found after ~35 tested configurations (a random search has
only ~30% probability of doing as well in as many draws).

@@sec531_nm_vs_random@@

## Table 3 — auto-tuned parameter values

The paper's point is that the winners *differ* per platform, size, and
process count (hence Figure 9); exact values are machine-specific, so
ours differ from the paper's — both are printed side by side.

@@table3a_umd@@
@@table3b_hopper@@
@@table3c_hopper_large@@

## Figure 9 — cross-platform test

Paper: running one platform with the other's tuned configuration loses
~10% (UMD with Hopper's config) to ~20% (Hopper with UMD's config) at
p=32, 512^3.  Ours shows the same sign: native tuning never loses on
average and the foreign configuration costs measurably somewhere.

@@fig9a_cross_umd@@
@@fig9b_cross_hopper@@

## Table 4 — auto-tuning time

Shape targets (§5.3.3): TH (3 parameters) tunes faster than NEW (10
parameters); NEW's tuning cost is comparable to FFTW_PATIENT's for most
cells.  Our absolute tuning seconds are smaller than the paper's (their
protocol repeats 5 tuning runs x 5 executions; ours counts one session's
simulated evaluations), but the per-method ordering matches.

@@table4a_umd@@
@@table4b_hopper@@
@@table4c_hopper_large@@

## Ablations (beyond the paper)

Design-choice checks from DESIGN.md: each knob shows the trade-off the
paper claims for it.

@@ablation_T@@
@@ablation_W@@
@@ablation_Fy@@
@@ablation_Px@@
@@ablation_Uy@@
@@ablation_overlap@@
@@ablation_loop_tiling@@
@@ablation_fast_transpose@@
@@ablation_eager_threshold@@
@@ablation_new0_vs_fftw@@

## Extensions (paper §2.3, §6-7)

Inter-array overlap (Kandalla et al.) helps only with multiple arrays
and the combined intra+inter mode is best — the paper's §7 goal; the
r2c pipeline inherits the overlap machinery at half the exchange volume.

@@ext_multiarray_overlap@@
@@ext_realfft_r2c@@

## Harness performance — engine fast paths (BENCH_exec.json)

Host-time numbers (not virtual seconds): the cost of *running* the
simulator, before vs after the engine fast paths (DESIGN.md §5.11).
The rows below are the walls `tools/bench_exec.py` recorded for the
Table-2a quick grid, end to end on one 1-core host, best of 2 cold
runs, identical cell results asserted:

| configuration | wall (s) | vs pre-exec-layer seed |
|---|---|---|
| seed baseline (committed, threads, serial) | 22.17 | 1.0x |
| exec layer (committed, tasks backend) | 17.31 | 1.28x |
| + engine fast paths (tasks) | 7.36 | **3.01x** |

The simulator has since lost its thread backend and its fast-path-off
scheduler (DESIGN.md §5.5, §5.11): the fast paths *are* the scheduler.
`tools/bench_exec.py` now times the one engine serially (`jobs=1`) and
sharded over `--jobs` workers, asserts identical cell results, and
carries the 22.17 s seed wall forward as `historic_seed_wall_s`.  Its
latest run, on a 2-vCPU host slower than the one above, records
11.68 s serial and 9.12 s sharded over 2 workers (2.43x the seed wall);
the commit before the removal times the same serial grid at
10.65-10.95 s on that host.  The per-phase breakdown separates pure
scheduling (a virtual 64^3/p8 pipeline, 7.0 ms per run) from
real-payload movement (kernel-dominated, ~62 ms).  Scheduler
handoff/probe counters (159648 / 301207 for the serial grid) are the
ones every earlier configuration recorded, and
`tools/check_perf_smoke.py` guards them in CI against the committed
`BENCH_smoke.json`.

## Application workloads — steady-state throughput (BENCH_apps.json)

Beyond the paper: traffic-shaped workloads (`repro.apps`, DESIGN.md
§5.15) that call the tuned pipelines every step instead of once.
`tools/bench_apps.py` records three phases into `BENCH_apps.json`
(host wall time except where marked virtual):

* **Plan + wisdom reuse.** Spectral Poisson on an anisotropic
  24x30x36 grid (three distinct 1-D plan sizes), p=4, EXHAUSTIVE
  planning from cold wisdom: first step ~92 ms, steady p50 ~20 ms —
  a **4.7x** first-step/steady speedup, with the registry proving the
  mechanism (3 plans built in step 1, zero in steps 2..N, and a warm
  rerun in the same process builds 0 plans; the conjugation-identity
  inverse keeps inverse transforms on FORWARD plans).
* **Warm plan-server startup.** A `repro serve` instance tuned the
  (p=4, 32^3) cell once; an app pointed at it via `--plan-server`
  fetches tuned params in ~1 ms and runs **zero simulations on both
  sides** (client registry and server registry both flat), vs ~0.27 s
  to tune the same cell locally from cold — a ~8x startup speedup
  with identical steady-state virtual step time (1.98 ms, 1008
  virtual transforms/s — deterministic, so CI holds it at 5%).
* **Driver sweep.** All three drivers at 16^3/p=4: 108–131
  transforms/s steady, oracle error at machine epsilon.

`tools/check_perf_smoke.py --apps` guards the speedup floor (1.5x),
the deterministic virtual throughput (5%), and wall throughput under
the cross-host factor, against the committed `BENCH_apps.json`.

## Known deviations

* **Absolute seconds** come from analytic models; per-cell ratios vs the
  paper range roughly 0.8-1.3x (see `python -m repro.bench.calibrate`).
* **UMD speedups at p=16** land ~1.35-1.45x vs the paper's up to 1.69x:
  the model's computation/communication balance at those cells is
  slightly communication-heavier than the real Myrinet cluster's.
* **Figure 5 spread** is ~1.6-2x rather than ~3x (cache model is smooth
  where real hardware cliffs).
* **Table 4 absolute values** measure a different protocol (see above);
  only the method ordering is comparable.
* **§5.3.1**: our Nelder-Mead lands at the ~2-3rd percentile of the
  200-random-config distribution rather than the paper's 1st — the
  model's flatter optimum plateau (see the Figure 5 deviation) leaves
  less for the search to separate.
* **Tuned parameter values** (Table 3) differ from the paper's — as the
  paper itself argues they must across systems; the reproduced claim is
  their variability and non-transferability (Figure 9), not the values.
"""


def main() -> int:
    out_lines = []
    missing = []
    for line in TEMPLATE.splitlines():
        stripped = line.strip()
        if stripped.startswith("@@") and stripped.endswith("@@"):
            name = stripped.strip("@")
            path = RESULTS / f"{name}.txt"
            if not path.exists():
                missing.append(name)
                out_lines.append(f"*(missing result file: {name}.txt)*")
                continue
            out_lines.append("```text")
            out_lines.append(path.read_text().rstrip())
            out_lines.append("```")
        else:
            out_lines.append(line)
    (ROOT / "EXPERIMENTS.md").write_text("\n".join(out_lines) + "\n")
    if missing:
        print(f"WARNING: {len(missing)} result files missing: {missing}")
    print(f"wrote EXPERIMENTS.md ({len(out_lines)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
