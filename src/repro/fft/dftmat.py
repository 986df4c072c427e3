"""Dense DFT matrices and the gemm kernel family.

Every kernel here is a BLAS matrix product (gemm) against a precomputed
DFT matrix, or a composition of such products:

* :class:`DirectPlan` — one ``(B, n) @ (n, n)`` product, for small n;
* :class:`TwoFactorPlan` — for ``n = n1 * n2``, the transforms along
  ``n1`` and ``n2`` of the ``n1 x n2`` view of each row with a twiddle
  multiply between them (the four-step algorithm), its factor kernels
  chosen by the planner like any other size.

Every product goes through :func:`rows_matmul`, which keeps a row's
result bitwise independent of how many rows share the call; the
two-factor kernel only adds copies and an elementwise multiply, so it
inherits that independence from its factors.
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
