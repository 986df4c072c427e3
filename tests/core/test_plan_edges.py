"""Edge cases of the pipeline plan: degenerate windows, tiles, shapes."""

import numpy as np
import pytest

from repro.core import (
    NEW,
    ParallelFFT3D,
    ProblemShape,
    TuningParams,
    default_params,
    run_case,
)
from repro.errors import ParameterError, SimulationError
from repro.machine import UMD_CLUSTER
from repro.simmpi import run_spmd

RNG = np.random.default_rng(66)


def csig(*shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def run_with(params, nx=16, ny=16, nz=16, p=4, arr=None):
    shape = ProblemShape(nx, ny, nz, p)
    if arr is None:
        arr = csig(nx, ny, nz)
    res, spec = run_case("NEW", UMD_CLUSTER, shape, params, global_array=arr)
    assert np.allclose(spec, np.fft.fftn(arr), atol=1e-8)
    return res


class TestDegenerateTilings:
    def test_window_larger_than_tile_count(self):
        # k = 2 tiles but W = 8: the pipeline must clamp gracefully.
        base = default_params(ProblemShape(16, 16, 16, 4))
        run_with(base.replace(T=8, W=8))

    def test_single_tile_with_overlap_enabled(self):
        base = default_params(ProblemShape(16, 16, 16, 4))
        run_with(base.replace(T=16, W=4, Pz=2, Uz=2))

    def test_one_element_tiles(self):
        base = default_params(ProblemShape(16, 16, 16, 4))
        run_with(base.replace(T=1, Pz=1, Uz=1))

    def test_tile_not_dividing_nz(self):
        base = default_params(ProblemShape(16, 16, 12, 4))
        run_with(base.replace(T=5, Pz=2, Uz=2), nz=12)

    def test_zero_test_frequencies_with_window(self):
        # Overlap posted but never progressed: everything drains at Wait.
        base = default_params(ProblemShape(16, 16, 16, 4))
        res = run_with(base.replace(Fy=0, Fp=0, Fu=0, Fx=0))
        assert res.breakdown["Test"] == 0.0

    def test_huge_test_frequencies(self):
        shape = ProblemShape(16, 16, 16, 4)
        base = default_params(shape)
        f = shape.f_max
        res = run_with(base.replace(Fy=f, Fp=f, Fu=f, Fx=f))
        assert res.breakdown["Test"] > 0


class TestShapeEdges:
    def test_single_rank(self):
        arr = csig(8, 8, 8)
        shape = ProblemShape(8, 8, 8, 1)
        res, spec = run_case("NEW", UMD_CLUSTER, shape, global_array=arr)
        assert np.allclose(spec, np.fft.fftn(arr), atol=1e-9)

    def test_minimum_extent_axes(self):
        arr = csig(4, 4, 1)
        shape = ProblemShape(4, 4, 1, 2)
        params = default_params(shape)
        res, spec = run_case("NEW", UMD_CLUSTER, shape, params, global_array=arr)
        assert np.allclose(spec, np.fft.fftn(arr), atol=1e-10)

    def test_tall_thin_arrays(self):
        arr = csig(32, 2, 2)
        shape = ProblemShape(32, 2, 2, 2)
        _, spec = run_case("NEW", UMD_CLUSTER, shape, global_array=arr)
        assert np.allclose(spec, np.fft.fftn(arr), atol=1e-9)

    def test_prime_extents(self):
        arr = csig(7, 11, 13)
        shape = ProblemShape(7, 11, 13, 3)
        _, spec = run_case("NEW", UMD_CLUSTER, shape, global_array=arr)
        assert np.allclose(spec, np.fft.fftn(arr), atol=1e-8)


class TestPlanValidation:
    def test_wrong_communicator_size(self):
        def prog(ctx):
            shape = ProblemShape(16, 16, 16, 8)  # but 4 ranks running
            ParallelFFT3D(ctx, shape, default_params(shape))
            yield from ()  # never blocks, but runs as a generator program

        with pytest.raises(SimulationError) as ei:
            run_spmd(4, prog, UMD_CLUSTER)
        assert isinstance(ei.value.__cause__, ParameterError)

    def test_wrong_local_block_shape(self):
        def prog(ctx):
            shape = ProblemShape(16, 16, 16, 2)
            plan = ParallelFFT3D(ctx, shape, default_params(shape))
            yield from plan.steps(np.zeros((3, 16, 16), dtype=complex))

        with pytest.raises(SimulationError) as ei:
            run_spmd(2, prog, UMD_CLUSTER)
        assert isinstance(ei.value.__cause__, ParameterError)

    def test_infeasible_params_rejected_for_overlap(self):
        def prog(ctx):
            shape = ProblemShape(16, 16, 16, 2)
            bad = TuningParams(T=0, W=2, Px=1, Pz=1, Uy=1, Uz=1,
                               Fy=1, Fp=1, Fu=1, Fx=1)
            ParallelFFT3D(ctx, shape, bad, NEW)
            yield from ()  # never blocks, but runs as a generator program

        with pytest.raises(SimulationError) as ei:
            run_spmd(2, prog, UMD_CLUSTER)
        assert isinstance(ei.value.__cause__, ParameterError)

    def test_bad_fftz_mode(self):
        def prog(ctx):
            shape = ProblemShape(8, 8, 8, 2)
            ParallelFFT3D(ctx, shape, default_params(shape),
                          fftz_mode="quantum")
            yield from ()  # never blocks, but runs as a generator program

        with pytest.raises(SimulationError) as ei:
            run_spmd(2, prog, UMD_CLUSTER)
        assert isinstance(ei.value.__cause__, ParameterError)


class TestVariantEdgeBehavior:
    def test_new0_and_fftw_close(self):
        # Paper: "the performance should be similar to NEW-0".
        shape = ProblemShape(384, 384, 384, 16)
        new0, _ = run_case("NEW-0", UMD_CLUSTER, shape)
        fftw, _ = run_case("FFTW", UMD_CLUSTER, shape)
        assert abs(new0.elapsed - fftw.elapsed) / fftw.elapsed < 0.25

    def test_th0_slower_than_new0(self):
        # TH's untiled pack + naive transpose cost extra even without
        # overlap (Figure 8's TH-0 vs NEW-0 computation bars).
        shape = ProblemShape(256, 256, 256, 16)
        th0, _ = run_case("TH-0", UMD_CLUSTER, shape)
        new0, _ = run_case("NEW-0", UMD_CLUSTER, shape)
        assert th0.elapsed > new0.elapsed
