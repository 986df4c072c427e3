"""Distributed real-to-complex 3-D FFT and its c2r inverse (paper §2.3
extension)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import AppConfig, PoissonDriver
from repro.core import (
    VARIANTS,
    ProblemShape,
    TuningParams,
    default_params,
    parallel_irfft3d,
    parallel_rfft3d,
    run_case,
)
from repro.core.params import W_MAX
from repro.core.realfft3d import ParallelRFFT3D, r2c_comm_savings
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


@st.composite
def c2r_cases(draw):
    """p, an even-Nz shape (uneven slabs, Nx != Ny or the Nx == Ny fast
    transpose) big enough to resolve the manufactured Poisson problem, a
    variant, and either its baseline or parameters drawn feasible for
    the half spectrum the pipeline exchanges."""
    p = draw(st.integers(1, 6))
    nx = draw(st.integers(max(p, 3), 2 * p + 5))
    ny = nx if draw(st.booleans()) else draw(st.integers(max(p, 5), 2 * p + 5))
    nz = 2 * draw(st.integers(4, 7))
    params = None
    if draw(st.booleans()):
        half = ProblemShape(nx, ny, nz // 2 + 1, p)
        t = draw(st.integers(1, half.nz))
        f = st.integers(0, half.f_max)
        params = TuningParams(
            T=t, W=draw(st.integers(1, W_MAX)),
            Px=draw(st.integers(1, half.nxl_max)), Pz=draw(st.integers(1, t)),
            Uy=draw(st.integers(1, half.nyl_max)), Uz=draw(st.integers(1, t)),
            Fy=draw(f), Fp=draw(f), Fu=draw(f), Fx=draw(f),
        )
    return ((nx, ny, nz), p, draw(st.sampled_from(sorted(VARIANTS))), params,
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(c2r_cases())
def test_c2r_round_trip_matches_numpy(case):
    """The distributed c2r inverse against ``numpy.fft.irfftn``: it
    inverts the r2c forward, matches numpy on a half spectrum whose kz = 0
    and Nyquist planes are not Hermitian, ignores what numpy ignores
    there (the imaginary parts left after the x and y transforms), and
    solves the manufactured Poisson problem to round-off."""
    dims, p, variant, params, seed = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dims)
    half, fwd = parallel_rfft3d(x, p, HOPPER, params, variant)
    back, inv = parallel_irfft3d(half, p, HOPPER, params, variant)
    assert back.shape == dims and back.dtype == np.float64
    assert np.max(np.abs(back - x)) <= 1e-12
    assert inv.elapsed > 0 and inv.params == fwd.params

    noisy = half + 1j * rng.standard_normal(half.shape)
    got, _ = parallel_irfft3d(noisy, p, HOPPER, params, variant)
    ref = np.fft.irfftn(noisy, s=dims, axes=(0, 1, 2))
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.abs(ref).max()
    # an x-y Hermitian imaginary part on the kz = 0 and Nyquist planes
    # inverts to a purely imaginary plane, which the c2r drops
    bumped = noisy.copy()
    for kz in (0, -1):
        bumped[:, :, kz] += 1j * np.fft.fft2(rng.standard_normal(dims[:2]))
    moved, _ = parallel_irfft3d(bumped, p, HOPPER, params, variant)
    assert np.max(np.abs(moved - got)) <= 1e-12 * np.abs(ref).max()

    cfg = AppConfig(shape=ProblemShape(*dims, p), platform=HOPPER,
                    variant=variant, params=params, steps=1, warmup=0)
    driver = PoissonDriver(cfg)
    driver.run()
    assert driver.analytic_error() < 1e-10
