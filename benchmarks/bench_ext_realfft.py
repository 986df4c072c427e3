"""Extension bench (paper §2.3): real-to-complex vs complex pipeline.

The overlap method applies unchanged to the r2c transform; the half
spectrum halves both the z-axis computation and — more importantly at
scale — the all-to-all volume.
"""

from repro.core import ProblemShape, run_case
from repro.core.realfft3d import ParallelRFFT3D, r2c_comm_savings
from repro.machine import UMD_CLUSTER
from repro.report import format_table
from repro.simmpi import run_spmd


def r2c_time(shape):
    def prog(ctx):
        yield from ParallelRFFT3D(ctx, shape).steps(None)

    return run_spmd(shape.p, prog, UMD_CLUSTER).elapsed


def test_r2c_vs_c2c(report_writer, benchmark):
    rows = []
    for n, p in [(128, 8), (256, 16), (384, 16)]:
        shape = ProblemShape(n, n, n, p)
        c2c, _ = run_case("NEW", UMD_CLUSTER, shape)
        r2c = r2c_time(shape)
        rows.append(
            [p, f"{n}^3", c2c.elapsed, r2c, c2c.elapsed / r2c,
             r2c_comm_savings(n)]
        )
    report_writer(
        "ext_realfft_r2c",
        format_table(
            ["p", "N^3", "c2c (s)", "r2c (s)", "speedup", "volume ratio"],
            rows,
            title="Extension - real-to-complex transform with the same"
                  " overlap pipeline (UMD-Cluster)",
        ),
    )
    for row in rows:
        assert row[4] > 1.3  # r2c clearly faster

    benchmark.pedantic(
        lambda: r2c_time(ProblemShape(128, 128, 128, 8)),
        rounds=1, iterations=1,
    )
