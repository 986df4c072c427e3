"""Dense DFT matrices and the gemm kernel family.

Every kernel here is a BLAS matrix product (gemm) against a precomputed
DFT matrix, or a composition of such products:

* :class:`DirectPlan` — one ``(B, n) @ (n, n)`` product, for small n;
* :class:`TwoFactorPlan` — for ``n = n1 * n2``, the transforms along
  ``n1`` and ``n2`` of the ``n1 x n2`` view of each row with a twiddle
  multiply between them (the four-step algorithm), its factor kernels
  chosen by the planner like any other size;
* :class:`RealDirectPlan` — a real transform (r2c or c2r) of even ``n``
  as one real ``(B, n) @ (n, n + 2)`` or ``(B, n + 2) @ (n + 2, n)``
  product against :func:`real_dft_matrix`, read from or written to
  the half spectrum's interleaved float view;
* :class:`PackedRealPlan` — the same real transforms through one
  complex transform of ``n/2`` (the packing trick), for the sizes above
  ``DIRECT_MAX``.

Every complex product goes through :func:`rows_matmul` and every real
one through :func:`stacked_matmul`, which keep a row's result bitwise
independent of how many rows share the call; the two-factor and packed
kernels only add copies and elementwise arithmetic, so they inherit
that independence from their inner kernels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ..errors import PlanError

FORWARD = -1
BACKWARD = +1

#: Largest size for which the planner will consider a direct dense DFT.
DIRECT_MAX = 64


@functools.lru_cache(maxsize=None)
def dft_matrix(n: int, sign: int) -> np.ndarray:
    """Return the dense DFT matrix ``W`` with ``W[k, j] = exp(sign*2πi*k*j/n)``.

    ``sign=-1`` (:data:`FORWARD`) gives the forward transform in the
    paper's Equation 1; ``sign=+1`` the unnormalized inverse.  The result
    is cached and must not be mutated by callers.
    """
    if n < 1:
        raise ValueError(f"DFT size must be >= 1, got {n}")
    if sign not in (FORWARD, BACKWARD):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    k = np.arange(n)
    w = np.exp(sign * 2j * np.pi / n * np.outer(k, k))
    w.flags.writeable = False
    return w


def rows_matmul(x: np.ndarray, w: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """``x @ w`` for a ``(B, n)`` row batch, bitwise independent of ``B``,
    written into ``out`` when given.

    NumPy hands a one-row product to BLAS gemv and a multi-row one to
    gemm, and the two round differently.  A lone row is paired with a
    copy of itself so that every batch size takes the gemm path.
    """
    if x.shape[0] != 1:
        return np.matmul(x, w, out=out)
    res = (np.concatenate((x, x)) @ w)[:1]
    if out is None:
        return res
    out[...] = res
    return out


#: rows per real product in :func:`stacked_matmul`
REAL_GEMM_ROWS = 64


def stacked_matmul(x: np.ndarray, w: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """``x @ w`` for a C-contiguous real ``(B, k)`` row batch, bitwise
    independent of ``B``, written into ``out`` (C-contiguous) when given.

    OpenBLAS computes a real gemm whose ``M*N*K`` falls below a
    shape-dependent threshold with a small-matrix kernel that rounds
    differently from its blocked kernel, so a row's bits would depend
    on how many rows share the call.  Here every product is one gemm of
    exactly :data:`REAL_GEMM_ROWS` rows: numpy's stacked matmul runs the
    full groups, and the last partial group is zero-padded.
    """
    b, k = x.shape
    r = REAL_GEMM_ROWS
    if out is None:
        out = np.empty((b, w.shape[1]))
    full = b - b % r
    if full:
        np.matmul(x[:full].reshape(-1, r, k), w,
                  out=out[:full].reshape(-1, r, w.shape[1]))
    if full < b:
        pad = np.zeros((r, k))
        pad[: b - full] = x[full:]
        out[full:] = (pad @ w)[: b - full]
    return out


def direct_dft(x: np.ndarray, sign: int = FORWARD,
               out: np.ndarray | None = None) -> np.ndarray:
    """Direct dense DFT along the last axis (any size, O(n^2)), written
    into ``out`` (C-contiguous, ``x``'s shape) when given.

    Used as the dense kernel and as an oracle in tests.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    res = rows_matmul(x.reshape(-1, n), dft_matrix(n, sign).T,
                      None if out is None else out.reshape(-1, n))
    return res.reshape(x.shape)


@functools.lru_cache(maxsize=None)
def twiddles(n: int, r: int, sign: int) -> np.ndarray:
    """Twiddle factor table for splitting size ``n`` into ``r`` x ``n // r``.

    Shape ``(r, n // r)`` with ``tw[s, j] = exp(sign*2πi*s*j/n)``.  Cached;
    callers must treat the array as read-only.
    """
    if n % r != 0:
        raise ValueError(f"radix {r} does not divide {n}")
    m = n // r
    s = np.arange(r)[:, None]
    j = np.arange(m)[None, :]
    tw = np.exp(sign * 2j * np.pi / n * (s * j))
    tw.flags.writeable = False
    return tw


def _check(kernel, x: np.ndarray) -> np.ndarray:
    if x.shape[-1] != kernel.n:
        raise PlanError(
            f"plan is for size {kernel.n}, input last axis is {x.shape[-1]}"
        )
    return np.asarray(x, dtype=np.complex128)


@dataclass(frozen=True)
class DirectPlan:
    """Dense-DFT kernel: one gemm against the ``n x n`` DFT matrix."""

    n: int
    sign: int = FORWARD

    def execute(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Transform the last axis of ``x`` (shape ``(..., n)``), into
        ``out`` when given."""
        return direct_dft(_check(self, x), self.sign, out)


@dataclass
class TwoFactorPlan:
    """Four-step kernel for ``n = n1 * n2`` built on two factor kernels.

    With ``j = n2*j1 + j2`` and ``k = k1 + n1*k2``, the DFT of a row is
    a size-``n1`` transform over ``j1`` for each ``j2``, a twiddle
    multiply by ``exp(sign*2πi*j2*k1/n)``, and a size-``n2`` transform
    over ``j2`` for each ``k1``.  Each transform runs the factor kernel
    on contiguous rows, so the ``n1 x n2`` view is transposed before the
    first, between the two (fused with the twiddle multiply) and after
    the second.  ``first`` and ``second`` are kernels of sizes ``n1`` and
    ``n2`` with this plan's sign.
    """

    n1: int
    n2: int
    first: object = field(repr=False)
    second: object = field(repr=False)
    sign: int = FORWARD
    n: int = field(init=False)
    tw: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.n = self.n1 * self.n2
        # tw[k1, j2]: the twiddles in the layout the multiply reads
        self.tw = np.ascontiguousarray(twiddles(self.n, self.n2, self.sign).T)

    def execute(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Transform the last axis of ``x`` (shape ``(..., n)``), into
        ``out`` when given."""
        x = _check(self, x)
        n1, n2 = self.n1, self.n2
        b = x.size // self.n
        # [b, j1, j2] -> rows over j1: [b, j2, j1] -> [b, j2, k1]
        a = self.first.execute(
            x.reshape(b, n1, n2).transpose(0, 2, 1).reshape(b * n2, n1))
        # twiddle while transposing to rows over j2: [b, k1, j2]
        a = np.multiply(a.reshape(b, n2, n1).transpose(0, 2, 1), self.tw,
                        order="C")
        a = self.second.execute(a.reshape(b * n1, n2))
        # [b, k1, k2] -> output order k = k1 + n1*k2: [b, k2, k1]
        a = a.reshape(b, n1, n2).transpose(0, 2, 1)
        if out is None:
            return a.reshape(x.shape)
        np.copyto(out.reshape(b, n2, n1), a)
        return out


@functools.lru_cache(maxsize=None)
def real_dft_matrix(n: int, sign: int) -> np.ndarray:
    """The real matrix of a real transform of even length ``n``.

    With ``h = n // 2``, :data:`FORWARD` (r2c) gives the ``(n, 2h + 2)``
    matrix whose columns ``2k`` and ``2k + 1`` hold ``cos`` and ``-sin``
    of ``2πjk/n``: a real row times it is the half spectrum
    ``X[0..h]`` as interleaved re/im pairs.  :data:`BACKWARD` (c2r)
    gives the ``(2h + 2, n)`` matrix of the normalized inverse
    ``x[j] = (1/n) Σ_k w_k Re(X[k] exp(2πijk/n))`` with ``w_0 = w_h = 1``
    and 2 otherwise; its rows for the imaginary parts of ``X[0]`` and
    ``X[h]`` are zero, so those parts are ignored, as
    ``numpy.fft.irfft`` ignores them.  Cached and read-only.
    """
    if n < 2 or n % 2:
        raise ValueError(f"real DFT size must be even and >= 2, got {n}")
    if sign not in (FORWARD, BACKWARD):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    h = n // 2
    # reduce jk mod n first: the angle stays in [0, 2π)
    theta = 2 * np.pi / n * (np.outer(np.arange(n), np.arange(h + 1)) % n)
    cos, sin = np.cos(theta), np.sin(theta)
    sin[:, [0, h]] = 0.0  # the DC and Nyquist columns are real
    if sign == FORWARD:
        w = np.stack((cos, -sin), axis=-1).reshape(n, 2 * h + 2)
    else:
        weight = np.full(h + 1, 2.0 / n)
        weight[[0, h]] = 1.0 / n
        w = np.stack((cos.T * weight[:, None], -sin.T * weight[:, None]),
                     axis=1).reshape(2 * h + 2, n)
    w.flags.writeable = False
    return w


def _check_real(kernel, x: np.ndarray) -> np.ndarray:
    """``x`` as the kernel's C-contiguous input: ``(..., n)`` float64
    for r2c, ``(..., n//2 + 1)`` complex128 for c2r."""
    width = kernel.n if kernel.sign == FORWARD else kernel.n // 2 + 1
    if x.shape[-1] != width:
        raise PlanError(f"real plan of size {kernel.n} takes rows of "
                        f"{width}, input last axis is {x.shape[-1]}")
    dtype = np.float64 if kernel.sign == FORWARD else np.complex128
    return np.ascontiguousarray(x, dtype=dtype)


def _check_real_size(n: int, sign: int) -> None:
    if n < 2 or n % 2:
        raise PlanError(f"real transforms need an even size >= 2, got {n}")
    if sign not in (FORWARD, BACKWARD):
        raise PlanError(f"sign must be -1 or +1, got {sign}")


@dataclass(frozen=True)
class RealDirectPlan:
    """Dense real kernel of even size ``n``: r2c (``sign`` forward) or
    the normalized c2r (backward) as one real gemm against
    :func:`real_dft_matrix`.

    The half spectrum is read or written as its interleaved float view,
    so the product goes straight between the complex rows and the real
    ones, with no packing pass."""

    n: int
    sign: int = FORWARD

    def __post_init__(self) -> None:
        _check_real_size(self.n, self.sign)

    def execute(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """r2c: ``(..., n)`` reals to ``(..., n//2 + 1)`` complex; c2r:
        the reverse.  Written into ``out`` (C-contiguous) when given."""
        x = _check_real(self, x)
        lead = x.shape[:-1]
        rows = x.reshape(-1, x.shape[-1])
        w = real_dft_matrix(self.n, self.sign)
        if self.sign == FORWARD:
            dst = (None if out is None
                   else out.reshape(-1, w.shape[1] // 2).view(np.float64))
            res = stacked_matmul(rows, w, dst).view(np.complex128)
        else:
            dst = None if out is None else out.reshape(-1, self.n)
            res = stacked_matmul(rows.view(np.float64), w, dst)
        return res.reshape(*lead, -1) if out is None else out


@dataclass
class PackedRealPlan:
    """Real kernel of even size ``n`` through one complex transform of
    ``h = n/2``: r2c packs the even and odd samples into ``h`` complex
    ones and separates their spectra after the transform; c2r merges
    them before it and the result's float view is the real output.
    ``half`` is a size-``h`` complex kernel with this plan's sign.  As
    in :class:`RealDirectPlan`, c2r is normalized and ignores the
    imaginary parts of ``X[0]`` and ``X[h]``."""

    n: int
    half: object = field(repr=False)
    sign: int = FORWARD
    tw: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_real_size(self.n, self.sign)
        k = np.arange(self.n // 2 + 1)
        #: exp(-2πik/n): the odd subsequence's shift, for k = 0..h
        self.tw = np.exp(-2j * np.pi * k / self.n)

    def execute(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """As :meth:`RealDirectPlan.execute`."""
        x = _check_real(self, x)
        h = self.n // 2
        if self.sign == FORWARD:
            zf = self.half.execute(x[..., 0::2] + 1j * x[..., 1::2])
            ext = np.concatenate([zf, zf[..., :1]], axis=-1)  # Z[h] = Z[0]
            rev = np.conj(ext[..., ::-1])  # conj(Z[h-k]) for k = 0..h
            even = 0.5 * (ext + rev)
            odd = -0.5j * (ext - rev)
            return np.add(even, self.tw * odd, out=out)
        rev = np.conj(x[..., ::-1])
        even = 0.5 * (x + rev)
        odd = 0.5 * (x - rev) * np.conj(self.tw)
        z = (even + 1j * odd)[..., :h]
        # only z[0] reads X[0] and X[h]: rebuild it from their real parts
        re0, reh = x[..., 0].real, x[..., h].real
        z[..., 0] = 0.5 * (re0 + reh) + 0.5j * (re0 - reh)
        if out is None:
            out = np.empty((*x.shape[:-1], self.n))
        np.divide(self.half.execute(z), h, out=out.view(np.complex128))
        return out
