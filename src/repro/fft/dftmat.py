"""Dense DFT matrices and direct O(n^2) transforms.

These are the "codelets" at the bottom of the mixed-radix recursion: for
small prime sizes the transform is computed as a matrix product against a
precomputed DFT matrix, which is both exact and fast in NumPy for the
sizes (2, 3, 5, 7, ...) that appear as radices.

Every product goes through :func:`rows_matmul`, which keeps a row's
result bitwise independent of how many rows share the call.
"""

from __future__ import annotations

import functools

import numpy as np

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


def rows_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for a ``(B, n)`` row batch, bitwise independent of ``B``.

    NumPy hands a one-row product to BLAS gemv and a multi-row one to
    gemm, and the two round differently.  A lone row is paired with a
    copy of itself so that every batch size takes the gemm path.
    """
    if x.shape[0] == 1:
        return (np.concatenate((x, x)) @ w)[:1]
    return x @ w


def direct_dft(x: np.ndarray, sign: int = FORWARD) -> np.ndarray:
    """Direct dense DFT along the last axis (any size, O(n^2)).

    Used as the dense kernel and as an oracle in tests.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    out = rows_matmul(x.reshape(-1, n), dft_matrix(n, sign).T)
    return out.reshape(x.shape)


@functools.lru_cache(maxsize=None)
def twiddles(n: int, r: int, sign: int) -> np.ndarray:
    """Twiddle factor table for a radix-``r`` Cooley-Tukey stage of size ``n``.

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
