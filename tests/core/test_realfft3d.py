"""Distributed real-to-complex 3-D FFT (paper §2.3 extension)."""

import numpy as np
import pytest

from repro.core import VARIANTS, ProblemShape, default_params, run_case
from repro.core.realfft3d import ParallelRFFT3D, parallel_rfft3d, r2c_comm_savings
from repro.errors import ParameterError, SimulationError
from repro.machine import HOPPER, UMD_CLUSTER
from repro.simmpi import run_spmd

RNG = np.random.default_rng(55)


class TestCorrectness:
    @pytest.mark.parametrize(
        "shape,p",
        [
            ((16, 16, 16), 4),
            ((12, 10, 8), 3),   # Nx != Ny, uneven slabs
            ((8, 12, 20), 4),
            ((16, 16, 2), 4),   # minimal even nz
        ],
    )
    def test_matches_numpy_rfftn(self, shape, p):
        a = RNG.standard_normal(shape)
        spec, _ = parallel_rfft3d(a, p, HOPPER)
        assert np.allclose(spec, np.fft.rfftn(a), atol=1e-8)

    def test_custom_params_respected_and_clamped(self):
        shape = ProblemShape(16, 16, 16, 4)
        params = default_params(shape).replace(T=16, Pz=16, Uz=16)
        a = RNG.standard_normal((16, 16, 16))
        spec, _ = parallel_rfft3d(a, 4, HOPPER, params=params)
        assert np.allclose(spec, np.fft.rfftn(a), atol=1e-8)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_every_variant_by_name(self, variant):
        # Variant names resolve like parallel_fft3d's, not only specs.
        a = RNG.standard_normal((12, 10, 8))
        half, _ = parallel_rfft3d(a, 3, HOPPER, variant=variant)
        assert np.allclose(half, np.fft.rfftn(a), atol=1e-8)
        spec_half, _ = parallel_rfft3d(a, 3, HOPPER, variant=VARIANTS[variant])
        assert np.array_equal(half, spec_half)

    def test_odd_nz_rejected(self):
        def prog(ctx):
            ParallelRFFT3D(ctx, ProblemShape(8, 8, 9, 2))
            yield from ()  # never blocks, but runs as a generator program

        with pytest.raises(SimulationError) as ei:
            run_spmd(2, prog, HOPPER)
        assert isinstance(ei.value.__cause__, ParameterError)

    def test_non3d_rejected(self):
        with pytest.raises(ParameterError):
            parallel_rfft3d(np.zeros((4, 4)), 2, HOPPER)

    def test_hermitian_consistency(self):
        """The half spectrum reconstructs the full complex transform."""
        n, p = 12, 3
        a = RNG.standard_normal((n, n, n))
        half, _ = parallel_rfft3d(a, p, HOPPER)
        full = np.fft.fftn(a)
        assert np.allclose(half, full[:, :, : n // 2 + 1], atol=1e-8)


class TestPerformance:
    def test_r2c_faster_than_c2c(self):
        """Half the spectrum means roughly half the exchange volume and
        z-computation: the r2c pipeline must beat c2c clearly."""
        n, p = 256, 16
        shape = ProblemShape(n, n, n, p)
        c2c, _ = run_case("NEW", UMD_CLUSTER, shape)

        def prog(ctx):
            yield from ParallelRFFT3D(ctx, shape).steps(None)

        r2c = run_spmd(p, prog, UMD_CLUSTER)
        assert r2c.elapsed < 0.75 * c2c.elapsed

    def test_comm_savings_ratio(self):
        assert r2c_comm_savings(256) == pytest.approx(129 / 256)
        assert 0.5 < r2c_comm_savings(16) < 0.6

    def test_virtual_mode_time_positive(self):
        shape = ProblemShape(64, 64, 64, 4)

        def prog(ctx):
            plan = ParallelRFFT3D(ctx, shape)
            yield from plan.steps(None)
            return ctx.now

        res = run_spmd(4, prog, UMD_CLUSTER)
        assert res.elapsed > 0
        assert res.breakdown()["FFTz"] > 0
