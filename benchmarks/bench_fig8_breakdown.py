"""Figure 8(a,b,c): per-step time breakdown of NEW, NEW-0, TH, TH-0.

The stacked bars become a step x variant matrix per setting.  The shape
targets (Section 5.2.1): NEW-0's Wait approximates the raw all-to-all
time; NEW shrinks Wait to a small residue by progressing during all four
computation steps; TH keeps a large Wait (no Unpack/FFTx overlap); NEW's
Transpose and Pack beat TH's (guru transpose + loop tiling).
"""

import os

import pytest

from repro.bench import BREAKDOWN_CELLS, run_breakdown
from repro.core import BREAKDOWN_LABELS
from repro.exec import evaluate_cells
from repro.report import format_stacked_breakdown

CELLS = (
    BREAKDOWN_CELLS[:2]
    if os.environ.get("REPRO_BENCH_SCALE") == "quick"
    else BREAKDOWN_CELLS
)


@pytest.mark.parametrize("platform,p,n", CELLS)
def test_fig8_breakdown(platform, p, n, report_writer, benchmark):
    # Parallel prefetch of this platform's breakdown cells ($REPRO_JOBS);
    # run_breakdown reads them from the process store.
    evaluate_cells(platform, [(pp, nn) for pl, pp, nn in CELLS if pl == platform])
    results = run_breakdown(platform, p, n)
    columns = [(name, res.breakdown) for name, res in results.items()]
    text = format_stacked_breakdown(columns, BREAKDOWN_LABELS)
    tag = platform.lower().replace("-", "") + f"_p{p}_n{n}"
    report_writer(
        f"fig8_breakdown_{tag}",
        f"Figure 8 - performance breakdown ({platform}, p={p}, N={n}^3)\n" + text,
    )

    new = results["NEW"].breakdown
    new0 = results["NEW-0"].breakdown
    th = results["TH"].breakdown

    # Overlap removes most of the exposed Wait relative to NEW-0.
    assert new["Wait"] < 0.55 * new0["Wait"]
    # TH exposes more Wait than NEW (no Unpack/FFTx progression).
    assert th["Wait"] > new["Wait"]
    # NEW's Transpose (FFTW guru) beats TH's plain rearrangement.
    assert new["Transpose"] < th["Transpose"]
    # Loop tiling: NEW packs faster than TH's untiled copy.
    assert new["Pack"] <= th["Pack"] * 1.05

    benchmark.pedantic(lambda: run_breakdown(platform, p, n, ("NEW",)),
                       rounds=1, iterations=1)
