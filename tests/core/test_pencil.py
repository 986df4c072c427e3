"""2-D (pencil) decomposition extension: correctness and scalability."""

import numpy as np
import pytest

from repro.core.decompose import gather_spectrum, scatter_slabs, slab_range
from repro.core.distplan import fft3d_plan
from repro.core.pencil import GridShape, PencilFFT3D, choose_grid
from repro.errors import DecompositionError, SimulationError
from repro.machine import HOPPER, UMD_CLUSTER
from repro.simmpi import run_spmd

RNG = np.random.default_rng(21)


def csig(*shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def pencil_fft(a, p, platform, grid=None):
    """Forward FFT of ``a`` on the grid plan for ``p`` ranks."""
    grid = grid or choose_grid(p)
    return fft3d_plan(GridShape(*a.shape, p), platform, grid=grid).forward(a)


class TestChooseGrid:
    def test_square(self):
        assert choose_grid(16) == (4, 4)

    def test_rectangular(self):
        assert choose_grid(12) == (3, 4)

    def test_prime(self):
        assert choose_grid(7) == (1, 7)

    def test_one(self):
        assert choose_grid(1) == (1, 1)

    @pytest.mark.parametrize("p", [2, 6, 24, 36, 100])
    def test_product_invariant(self, p):
        pr, pc = choose_grid(p)
        assert pr * pc == p and pr <= pc


class TestCorrectness:
    @pytest.mark.parametrize(
        "shape,p,grid",
        [
            ((16, 16, 16), 4, None),
            ((12, 18, 10), 6, (2, 3)),
            ((8, 8, 8), 8, None),       # 2x4 grid
            ((16, 12, 20), 4, (4, 1)),  # degenerate: pure 1-D over x
            ((16, 12, 20), 4, (1, 4)),  # degenerate: pure 1-D over y/z
            ((9, 10, 11), 6, (3, 2)),   # uneven everything
        ],
    )
    def test_matches_numpy(self, shape, p, grid):
        a = csig(*shape)
        spec, _ = pencil_fft(a, p, HOPPER, grid)
        assert np.allclose(spec, np.fft.fftn(a), atol=1e-8)

    def test_more_ranks_than_slabs(self):
        # p = 16 on a 8^3 array is impossible for 1-D decomposition
        # (p > N) but fine for a 4x4 pencil grid — the scalability
        # argument of Section 2.2.
        a = csig(8, 8, 8)
        spec, _ = pencil_fft(a, 16, HOPPER, (4, 4))
        assert np.allclose(spec, np.fft.fftn(a), atol=1e-8)

    def test_grid_mismatch_rejected(self):
        def prog(ctx):
            PencilFFT3D(ctx, (8, 8, 8), (3, 2))  # 6 != 4 ranks
            yield from ()  # never blocks, but runs as a generator program

        with pytest.raises(SimulationError) as ei:
            run_spmd(4, prog, HOPPER)
        assert isinstance(ei.value.__cause__, DecompositionError)

    def test_oversized_grid_rejected(self):
        def prog(ctx):
            PencilFFT3D(ctx, (2, 2, 2), (4, 1))
            yield from ()  # never blocks, but runs as a generator program

        with pytest.raises(SimulationError) as ei:
            run_spmd(4, prog, HOPPER)
        assert isinstance(ei.value.__cause__, DecompositionError)


class TestCommunicators:
    def test_row_and_column_groups(self):
        def prog(ctx):
            plan = PencilFFT3D(ctx, (8, 8, 8), (2, 3))
            return (plan.row_comm.group, plan.row_comm.comm_id,
                    plan.col_comm.group, plan.col_comm.comm_id)
            yield  # pragma: no cover - marks this as a generator function

        res = run_spmd(6, prog, HOPPER)
        ids = {}
        for rank, (row, row_id, col, col_id) in enumerate(res.results):
            r, c = divmod(rank, 3)
            assert row == [r * 3 + k for k in range(3)]
            assert col == [k * 3 + c for k in range(2)]
            # members share an id; different groups never do, nor the world
            for group, cid in ((row, row_id), (col, col_id)):
                assert ids.setdefault(cid, group) == group
                assert cid != 0
        assert len(ids) == 2 + 3

    def test_split_time_charged_at_construction(self):
        """Two MPI_Comm_split calls: an allgather and an allreduce each,
        ceil(log2 p) latency steps apiece, on every rank alike — a
        straggler's CPU slowdown does not stretch them."""
        from repro.faults import injected_faults

        def prog(ctx):
            PencilFFT3D(ctx, (8, 8, 8), (2, 3))
            return ctx.now
            yield  # pragma: no cover - marks this as a generator function

        step = 3 * UMD_CLUSTER.net.latency  # ceil(log2 6) = 3
        with injected_faults("straggler:rank=1,slow=2.0"):
            res = run_spmd(6, prog, UMD_CLUSTER, record_events=True)
        assert res.results == [pytest.approx(4 * step, rel=1e-12)] * 6
        for tr in res.traces:
            assert [e[2] for e in tr.events] == [
                "Allgather", "Allreduce", "Allgather", "Allreduce"]
            assert tr.by_label["Allgather"] == pytest.approx(2 * step)


class TestScatterGather:
    def test_scatter_blocks_cover(self):
        a = np.arange(4 * 6 * 5).reshape(4, 6, 5)
        blocks = scatter_slabs(a, 2, 3)
        assert len(blocks) == 6
        assert sum(b.size for b in blocks) == a.size

    def test_gather_inverse_of_known_layout(self):
        nx, ny, nz, pr, pc = 4, 6, 8, 2, 2
        ref = csig(nx, ny, nz)
        outs = []
        for r in range(pr):
            y0, y1 = slab_range(ny, pr, r)
            for c in range(pc):
                z0, z1 = slab_range(nz, pc, c)
                outs.append(ref[:, y0:y1, z0:z1].copy())
        got = gather_spectrum(outs, (nx, ny, nz), "xyz", pc)
        assert np.array_equal(got, ref)


class TestTiming:
    def test_virtual_mode_times(self):
        def prog(ctx):
            plan = PencilFFT3D(ctx, (64, 64, 64))
            yield from plan.steps(None)
            return ctx.now

        res = run_spmd(8, prog, UMD_CLUSTER)
        assert res.elapsed > 0
        bd = res.breakdown()
        # Two exchange stages mean two Pack/Unpack pairs worth of time.
        assert bd["Pack"] > 0 and bd["Unpack"] > 0

    def test_two_exchanges_cost_more_than_one_at_small_p(self):
        # Section 2.2: "depending on the system environment, 1-D
        # decomposition can be a better choice" — at small p on a slow
        # network the pencil method's second all-to-all is pure overhead.
        from repro.core import ProblemShape, run_case

        shape = ProblemShape(64, 64, 64, 8)
        slab, _ = run_case("FFTW", UMD_CLUSTER, shape)

        def prog(ctx):
            yield from PencilFFT3D(ctx, (64, 64, 64)).steps(None)

        pencil = run_spmd(8, prog, UMD_CLUSTER)
        assert pencil.elapsed > 0.8 * slab.elapsed

    def test_non3d_rejected(self):
        from repro.errors import ParameterError

        plan = fft3d_plan(GridShape(4, 4, 4, 4), HOPPER, grid=(2, 2))
        with pytest.raises(ParameterError):
            plan.forward(np.zeros((4, 4)))
