"""Every FFT kernel is bitwise batch-independent.

A row's transform must not depend on how many other rows share the
kernel call: the real-payload pipeline transforms whole tiles, and the
tiling parameters may change how work is batched but never the bits.
Checked for every candidate kernel (direct, two-factor, Bluestein) at
every size up to 130 — sizes <= 8, primes and sizes that only Bluestein
serves included — in both directions, for every real kernel (dense and
packed, r2c and c2r) at every even size up to 130, and for the
two-factor kernel at larger sizes, where its factors are two-factor or
Bluestein kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.fft import BACKWARD, FORWARD, Plan1D
from repro.fft import plan as plan_module
from repro.fft.plan import _candidates, _make_kernel

SIZES = range(1, 131)


def _rows(seed: int, b: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))


@st.composite
def row_splits(draw):
    """A batch size and the cut points of one contiguous split of it."""
    b = draw(st.integers(2, 9))
    cut = draw(st.lists(st.booleans(), min_size=b - 1, max_size=b - 1))
    return b, [0, *(i for i in range(1, b) if cut[i - 1]), b]


@pytest.mark.parametrize("n", SIZES)
@given(split=row_splits(), sign=st.sampled_from([FORWARD, BACKWARD]),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=4, deadline=None)
def test_kernels_bitwise_independent_of_row_split(n, split, sign, seed):
    b, bounds = split
    x = _rows(seed, b, n)
    kernels = [(name, _make_kernel(name, n, sign), x) for name in _candidates(n)]
    if n % 2 == 0:
        # r2c takes real rows, c2r half spectra
        rows = x.real if sign == FORWARD else x[:, : n // 2 + 1]
        kernels += [(name, _make_kernel(name, n, sign), rows)
                    for name in _candidates(n, real=True)]
    for name, kernel, x in kernels:
        whole = kernel.execute(x)
        parts = [kernel.execute(x[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        assert np.array_equal(np.concatenate(parts), whole), name
        single = [kernel.execute(x[i : i + 1]) for i in range(b)]
        assert np.array_equal(np.concatenate(single), whole), name


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("sign", [FORWARD, BACKWARD])
def test_real_gemm_is_bitwise_independent_across_blas_kernels(n, sign):
    # A real gemm small enough for OpenBLAS's small-matrix kernel rounds
    # differently from a large one; the dense real kernel must not show
    # it, from one row up to a batch far past that kernel's threshold.
    rng = np.random.default_rng(n)
    width = n if sign == FORWARD else n // 2 + 1
    x = rng.standard_normal((4100, width))
    if sign == BACKWARD:
        x = x + 1j * rng.standard_normal(x.shape)
    kernel = _make_kernel("rdirect", n, sign)
    whole = kernel.execute(x)
    for b in (1, 3, 64, 65, 200, 1000):
        assert np.array_equal(kernel.execute(x[:b]), whole[:b]), b


@pytest.mark.parametrize("n", [134, 256, 402, 1024, 4096, 8192])
@given(split=row_splits(), sign=st.sampled_from([FORWARD, BACKWARD]),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=2, deadline=None)
def test_two_factor_bitwise_independent_of_row_split(n, split, sign, seed):
    # 134 = 2 x 67 and 402 = 6 x 67 have a Bluestein factor, and
    # 8192 = 64 x 128 a two-factor one.
    b, bounds = split
    x = _rows(seed, b, n)
    name = next(d for d in _candidates(n) if d.startswith("twofactor:"))
    kernel = _make_kernel(name, n, sign)
    whole = kernel.execute(x)
    parts = [kernel.execute(x[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(parts), whole)
    single = [kernel.execute(x[i : i + 1]) for i in range(b)]
    assert np.array_equal(np.concatenate(single), whole)


@pytest.mark.parametrize("n", [1, 2, 5, 7, 8, 13, 16, 67, 97])
def test_plan_bitwise_independent_of_block_shape(n):
    # Plan1D on a stacked 3-D block equals the plan on each lone row,
    # through every axis position the pipelines use.
    plan = Plan1D(n)
    x = _rows(n, 12, n).reshape(3, 4, n)
    whole = plan.execute(x, axis=-1)
    for i in range(3):
        for j in range(4):
            assert np.array_equal(plan.execute(x[i : i + 1, j : j + 1], axis=2),
                                  whole[i : i + 1, j : j + 1])
    moved = plan.execute(np.moveaxis(x, -1, 0), axis=0)
    assert np.array_equal(np.moveaxis(moved, 0, -1), whole)


@pytest.mark.parametrize("n", [4, 16, 67, 96])
def test_plan_row_blocks_keep_the_bits(monkeypatch, n):
    # Plan1D.execute runs a batch bigger than BLOCK_BYTES in row blocks;
    # with blocks of three rows, every batch here is split, and the
    # last block is shorter (a lone row in one of them).
    plan = Plan1D(n)
    x = _rows(n, 10, n).reshape(2, 5, n)
    whole = plan._kernel.execute(x)
    monkeypatch.setattr(plan_module, "BLOCK_BYTES", 3 * 16 * n)
    assert np.array_equal(plan.execute(x, axis=-1), whole)
    assert np.array_equal(plan.execute(x[:, :2], axis=-1), whole[:, :2])
    out = np.empty_like(whole)
    assert plan.execute(x, out=out) is out
    assert np.array_equal(out, whole)


@pytest.mark.parametrize("n", [4, 16, 134])
def test_rfft_row_blocks_keep_the_bits(monkeypatch, n):
    plan = Plan1D(n, FORWARD, real=True)
    x = _rows(n, 10, n).real.reshape(2, 5, n)
    whole = plan.execute(x)
    monkeypatch.setattr(plan_module, "BLOCK_BYTES", 3 * 8 * n)
    assert np.array_equal(plan.execute(x), whole)
    out = np.empty_like(whole)
    assert plan.execute(x, out=out) is out
    assert np.array_equal(out, whole)


@pytest.mark.parametrize("n", [4, 16, 134])
def test_irfft_row_blocks_keep_the_bits(monkeypatch, n):
    plan = Plan1D(n, BACKWARD, real=True)
    spec = _rows(n, 10, n // 2 + 1).reshape(2, 5, n // 2 + 1)
    whole = plan.execute(spec)
    monkeypatch.setattr(plan_module, "BLOCK_BYTES", 3 * 16 * (n // 2 + 1))
    assert np.array_equal(plan.execute(spec), whole)
    out = np.empty_like(whole)
    assert plan.execute(spec, out=out) is out
    assert np.array_equal(out, whole)
    with pytest.raises(PlanError):
        plan.execute(spec, out=np.empty(whole.shape, np.complex128))


def test_plan_out_must_fit_a_last_axis_transform():
    plan = Plan1D(8)
    x = _rows(8, 4, 8)
    assert np.array_equal(plan.execute(x, out=np.empty_like(x)), plan.execute(x))
    assert np.array_equal(plan.execute(x, normalize=True, out=np.empty_like(x)),
                          plan.execute(x, normalize=True))
    for bad in (np.empty((4, 16), complex)[:, ::2], np.empty((3, 8), complex),
                np.empty((4, 8), np.complex64)):
        with pytest.raises(PlanError):
            plan.execute(x, out=bad)
    with pytest.raises(PlanError):
        plan.execute(x.T, axis=0, out=np.empty_like(x.T))
