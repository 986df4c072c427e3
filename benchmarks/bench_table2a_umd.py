"""Table 2(a): parallel 3-D FFT time on UMD-Cluster.

Regenerates the FFTW / NEW / TH columns for p in {16, 32} and
N in {256, 384, 512, 640}^3 with each method auto-tuned, and reports
paper-vs-measured side by side.  The benchmark metric is the wall time
of one tuned NEW simulation (the harness's unit of work).
"""

import pytest

from repro.bench import PAPER_TABLE2, cells_for, evaluate_cell
from repro.core import ProblemShape, run_case
from repro.exec import evaluate_cells
from repro.machine import UMD_CLUSTER
from repro.report import format_table, md_section, overlap_table

PLATFORM = UMD_CLUSTER
PAPER = PAPER_TABLE2["UMD-Cluster"]


def build_table():
    rows = []
    cells = {}
    # Shard the grid over $REPRO_JOBS workers (filling the process store
    # the serial loop below reads); identical results at any worker count.
    evaluate_cells(PLATFORM, cells_for("small"))
    for p, n in cells_for("small"):
        cell = evaluate_cell(PLATFORM, p, n)
        cells[(p, n)] = cell
        paper = PAPER[(p, n)]
        rows.append(
            [
                p, f"{n}^3",
                paper[0], cell.times["FFTW"],
                paper[1], cell.times["NEW"],
                paper[2], cell.times["TH"],
            ]
        )
    return rows, cells


def test_table2a(report_writer, benchmark):
    rows, cells = build_table()
    text = format_table(
        ["p", "N^3", "FFTW(paper)", "FFTW(ours)", "NEW(paper)",
         "NEW(ours)", "TH(paper)", "TH(ours)"],
        rows,
        title="Table 2(a) - 3-D FFT time on UMD-Cluster (seconds)",
    )
    text += "\n" + md_section(
        "Overlap accounting (tuned full runs)",
        overlap_table(cells.values()),
    )
    report_writer("table2a_umd", text)

    # Shape assertions: NEW wins every cell, as in the paper.
    for (p, n), cell in cells.items():
        assert cell.times["NEW"] < cell.times["FFTW"], (p, n)
        assert cell.times["NEW"] < cell.times["TH"], (p, n)

    sample = next(iter(cells.values()))
    shape = ProblemShape(sample.n, sample.n, sample.n, sample.p)
    benchmark.pedantic(
        lambda: run_case("NEW", PLATFORM, shape, sample.params["NEW"]),
        rounds=3, iterations=1,
    )


@pytest.mark.parametrize("p,n", [(16, 256), (32, 640)])
def test_speedup_band_umd(p, n, benchmark):
    """Tuned NEW lands in (a tolerant widening of) the paper's
    1.23-1.68x speedup band on UMD-Cluster."""
    cell = evaluate_cell(PLATFORM, p, n)
    assert 1.1 <= cell.speedup("NEW") <= 2.0
    benchmark.pedantic(lambda: cell.speedup("NEW"), rounds=1, iterations=1)
