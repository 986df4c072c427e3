"""Real-input transforms built on the complex kernels.

The paper's Section 2.3 notes its overlap method "is also applicable to
the techniques for the real-to-complex transform"; this module provides
that substrate: an ``rfft`` that transforms a real sequence of even
length ``n`` with a single complex FFT of length ``n/2`` (the classic
packing trick, Sorensen et al. [26] in the paper's bibliography), and the
matching inverse.
"""

from __future__ import annotations

import numpy as np

from ..errors import PlanError
from .dftmat import BACKWARD, FORWARD
from .plan import Plan1D, in_row_blocks


class RealPlan1D:
    """Plan for forward r2c / backward c2r transforms of even length ``n``.

    The forward transform maps ``n`` reals to ``n//2 + 1`` complex
    coefficients (the non-redundant half spectrum); the backward maps
    them back, normalized.
    """

    def __init__(self, n: int) -> None:
        if n < 2 or n % 2 != 0:
            raise PlanError(f"RealPlan1D requires even n >= 2, got {n}")
        self.n = n
        self.half = n // 2
        self._fwd = Plan1D(self.half, FORWARD)
        self._bwd = Plan1D(self.half, BACKWARD)
        k = np.arange(self.half + 1)
        self._w = np.exp(-2j * np.pi * k / n)  # post-processing twiddles

    def rfft(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Forward real-to-complex transform along the last axis.

        Input shape ``(..., n)`` real; output ``(..., n//2 + 1)`` complex,
        matching ``numpy.fft.rfft``, written into ``out`` when given.
        Large batches run in row blocks, as :meth:`Plan1D.execute` does.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.n:
            raise PlanError(f"plan is for size {self.n}, got {x.shape[-1]}")
        return in_row_blocks(self._rfft_rows, np.ascontiguousarray(x),
                             self.half + 1, out)

    def _rfft_rows(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # Pack even/odd samples into one complex sequence of length n/2.
        z = x[..., 0::2] + 1j * x[..., 1::2]
        zf = self._fwd.execute(z)
        h = self.half
        # Unpack: separate the spectra of the even and odd subsequences.
        zf_ext = np.concatenate([zf, zf[..., :1]], axis=-1)  # Z[h] = Z[0]
        rev = np.conj(zf_ext[..., ::-1])  # conj(Z[h-k]) for k=0..h
        fe = 0.5 * (zf_ext + rev)
        fo = -0.5j * (zf_ext - rev)
        return np.add(fe, self._w * fo, out=out)

    def irfft(self, spec: np.ndarray) -> np.ndarray:
        """Inverse complex-to-real transform (normalized), matching
        ``numpy.fft.irfft`` for Hermitian half spectra of length
        ``n//2 + 1``."""
        spec = np.asarray(spec, dtype=np.complex128)
        if spec.shape[-1] != self.half + 1:
            raise PlanError(
                f"expected half spectrum of length {self.half + 1}, got {spec.shape[-1]}"
            )
        h = self.half
        rev = np.conj(spec[..., ::-1])
        fe = 0.5 * (spec + rev)
        fo = 0.5 * (spec - rev) * np.conj(self._w)
        z = (fe + 1j * fo)[..., :h]
        zt = self._bwd.execute(z) / h
        out = np.empty(spec.shape[:-1] + (self.n,), dtype=np.float64)
        out[..., 0::2] = zt.real
        out[..., 1::2] = zt.imag
        return out


def rfft(x: np.ndarray) -> np.ndarray:
    """One-shot forward real FFT along the last axis (even length)."""
    return RealPlan1D(np.asarray(x).shape[-1]).rfft(x)


def irfft(spec: np.ndarray, n: int | None = None) -> np.ndarray:
    """One-shot inverse real FFT along the last axis."""
    m = np.asarray(spec).shape[-1]
    if n is None:
        n = 2 * (m - 1)
    return RealPlan1D(n).irfft(spec)
