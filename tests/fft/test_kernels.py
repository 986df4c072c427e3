"""Correctness of the from-scratch FFT kernels against numpy.fft."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.fft.bluestein import BluesteinPlan
from repro.fft.dftmat import (
    BACKWARD,
    FORWARD,
    TwoFactorPlan,
    dft_matrix,
    direct_dft,
    twiddles,
)
from repro.fft.plan import _candidates, _make_kernel, _work, planned_kernel
from repro.util.intmath import prime_factors

RNG = np.random.default_rng(42)


def random_signal(batch, n):
    return RNG.standard_normal((batch, n)) + 1j * RNG.standard_normal((batch, n))


def tol(n):
    return 1e-10 * max(n, 8)


def bluestein(n, sign=FORWARD):
    return BluesteinPlan(n, sign, planned_kernel)


class TestDftMatrix:
    def test_unitary_up_to_scale(self):
        for n in (1, 2, 3, 8, 16):
            w = dft_matrix(n, FORWARD)
            winv = dft_matrix(n, BACKWARD)
            assert np.allclose(w @ winv / n, np.eye(n), atol=1e-12)

    def test_matches_numpy(self):
        x = random_signal(3, 9)
        assert np.allclose(direct_dft(x), np.fft.fft(x), atol=tol(9))

    def test_cached_is_readonly(self):
        w = dft_matrix(8, FORWARD)
        with pytest.raises(ValueError):
            w[0, 0] = 0

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            dft_matrix(4, 2)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            dft_matrix(0, FORWARD)

    def test_twiddles_shape_and_values(self):
        tw = twiddles(8, 2, FORWARD)
        assert tw.shape == (2, 4)
        assert np.allclose(tw[0], 1.0)
        assert np.isclose(tw[1, 1], np.exp(-2j * np.pi / 8))

    def test_twiddles_rejects_nondivisor(self):
        with pytest.raises(ValueError):
            twiddles(8, 3, FORWARD)


#: Split policies for the two-factor kernel, named after the radix orders
#: of the retired mixed-radix kernel whose checks :class:`TestStagePlan`
#: carries over: the smallest prime factor first, the largest proper
#: factor first, or a radix-4 / radix-8 first factor.
POLICIES = ("small-first", "large-first", "radix4", "radix8")


def staged(n, sign=FORWARD, policy="small-first"):
    """The two-factor kernel on ``policy``'s split of ``n`` (its factors
    planned), or the planned kernel when ``n`` has no such split."""
    p = prime_factors(n)[0] if n > 1 else 1
    n1 = {"small-first": p, "large-first": n // p, "radix4": 4, "radix8": 8}[policy]
    if n1 in (1, n) or n % n1:
        return planned_kernel(n, sign)
    return TwoFactorPlan(n1, n // n1, planned_kernel(n1, sign),
                         planned_kernel(n // n1, sign), sign)


class TestStagePlan:
    """The mixed-radix kernel's numerical checks, on the two-factor
    kernel that replaced it (one split stage, factors planned)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 24, 30,
                                   32, 48, 64, 100, 128, 210, 256, 384, 640])
    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_forward_matches_numpy(self, n, policy):
        x = random_signal(2, n)
        got = staged(n, FORWARD, policy).execute(x)
        assert np.allclose(got, np.fft.fft(x), atol=tol(n))

    @pytest.mark.parametrize("n", [4, 12, 64, 384])
    def test_backward_is_unnormalized_inverse(self, n):
        x = random_signal(2, n)
        fwd = staged(n, FORWARD).execute(x)
        back = staged(n, BACKWARD).execute(fwd) / n
        assert np.allclose(back, x, atol=tol(n))

    def test_multidim_batch(self):
        x = RNG.standard_normal((3, 4, 16)) + 0j
        got = staged(16).execute(x)
        assert got.shape == x.shape
        assert np.allclose(got, np.fft.fft(x, axis=-1), atol=tol(16))

    def test_wrong_size_rejected(self):
        with pytest.raises(PlanError):
            staged(8).execute(np.zeros((2, 9), dtype=complex))

    def test_input_not_modified(self):
        x = random_signal(1, 32)
        x0 = x.copy()
        staged(32).execute(x)
        assert np.array_equal(x, x0)

    def test_flop_estimate_positive_and_monotone(self):
        f64 = _work("twofactor:8x8", 64)[0]
        f256 = _work("twofactor:16x16", 256)[0]
        assert 0 < f64 < f256

    def test_linearity(self):
        # FFT is linear: F(a x + b y) = a F(x) + b F(y).
        plan = staged(48)
        x, y = random_signal(1, 48), random_signal(1, 48)
        lhs = plan.execute(2.0 * x + 3j * y)
        rhs = 2.0 * plan.execute(x) + 3j * plan.execute(y)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_impulse_is_flat(self):
        # FFT of a delta at 0 is all-ones.
        x = np.zeros((1, 60), dtype=complex)
        x[0, 0] = 1.0
        assert np.allclose(staged(60).execute(x), 1.0, atol=1e-12)

    @given(st.integers(2, 200))
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, n):
        # Energy conservation: sum|X|^2 = n * sum|x|^2.
        x = random_signal(1, n)
        X = staged(n).execute(x)
        assert np.isclose(
            np.sum(np.abs(X) ** 2), n * np.sum(np.abs(x) ** 2), rtol=1e-8
        )


class TestBluestein:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 11, 13, 17, 97, 101, 251])
    def test_prime_sizes(self, n):
        x = random_signal(2, n)
        got = bluestein(n).execute(x)
        assert np.allclose(got, np.fft.fft(x), atol=tol(n))

    @pytest.mark.parametrize("n", [12, 100, 384])
    def test_composite_sizes_also_work(self, n):
        x = random_signal(1, n)
        assert np.allclose(bluestein(n).execute(x), np.fft.fft(x), atol=tol(n))

    def test_backward(self):
        x = random_signal(1, 23)
        fwd = bluestein(23, FORWARD).execute(x)
        back = bluestein(23, BACKWARD).execute(fwd) / 23
        assert np.allclose(back, x, atol=tol(23))

    def test_large_prime_precision(self):
        # j^2 mod 2n chirp indexing keeps precision for large n.
        n = 10007
        x = random_signal(1, n)
        got = bluestein(n).execute(x)
        assert np.allclose(got, np.fft.fft(x), atol=1e-6)

    def test_wrong_size_rejected(self):
        with pytest.raises(PlanError):
            bluestein(8).execute(np.zeros((1, 9), dtype=complex))

    def test_rejects_bad_params(self):
        with pytest.raises(PlanError):
            bluestein(0)
        with pytest.raises(PlanError):
            bluestein(8, 5)


#: 1, primes up to and above DIRECT_MAX, prime powers, and composites
#: whose two-factor split has a factor above DIRECT_MAX (Bluestein inside);
#: the even ones, with even sizes around DIRECT_MAX and ones whose half
#: is prime (Bluestein inside the packed real kernel), for the real kernels
SIZES = (1, 2, 3, 5, 7, 11, 13, 31, 61, 67, 97, 127, 9, 25, 27, 49, 81,
         125, 128, 243, 343, 512, 4096, 134, 201, 268, 4489,
         4, 6, 16, 18, 62, 64, 66, 194)


@pytest.mark.parametrize("n", SIZES)
@given(seed=st.integers(0, 2**31 - 1), batch=st.integers(1, 4))
@settings(max_examples=3, deadline=None)
def test_every_candidate_matches_numpy(n, seed, batch):
    # Every descriptor the planner may pick, both directions, and for
    # an even size every real one: r2c, and the normalized c2r on a half
    # spectrum whose first and last coefficients are not real.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, n)) + 1j * rng.standard_normal((batch, n))
    for name in _candidates(n):
        fwd = _make_kernel(name, n, FORWARD).execute(x)
        assert np.allclose(fwd, np.fft.fft(x), atol=tol(n)), name
        back = _make_kernel(name, n, BACKWARD).execute(x)
        assert np.allclose(back, n * np.fft.ifft(x), atol=tol(n)), name
    if n % 2:
        return
    half = x[:, : n // 2 + 1]
    for name in _candidates(n, real=True):
        r2c = _make_kernel(name, n, FORWARD).execute(x.real)
        assert np.allclose(r2c, np.fft.rfft(x.real), atol=tol(n)), name
        c2r = _make_kernel(name, n, BACKWARD).execute(half)
        assert c2r.dtype == np.float64
        assert np.allclose(c2r, np.fft.irfft(half, n), atol=tol(n) / n), name
