"""Bluestein chirp-z transform: FFT of arbitrary (including large prime)
sizes via a power-of-two convolution.

``X[k] = conj(c[k]) * IDFT_M( DFT_M(x*conj(c)) * DFT_M(b) )[k]`` where
``c[j] = exp(-sign*πi*j²/n)`` is the chirp and ``b`` its mirrored
conjugate, zero-padded to a convolution length ``M >= 2n-1`` that is a
power of two.  The two size-``M`` transforms are kernels of the gemm
family the planner picks for ``M`` (:func:`repro.fft.plan.planned_kernel`):
the dense kernel up to ``DIRECT_MAX``, the two-factor kernel above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import PlanError
from ..util.intmath import next_pow2
from .dftmat import BACKWARD, FORWARD


@dataclass
class BluesteinPlan:
    """Precomputed Bluestein plan for one (size, sign).

    ``inner(m, sign)`` returns the kernel for a size-``m`` transform in
    direction ``sign``; the plan takes a forward and a backward one.
    """

    n: int
    sign: int
    inner: Callable[[int, int], object] = field(repr=False)
    m: int = field(init=False)
    chirp: np.ndarray = field(init=False, repr=False)
    bhat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise PlanError(f"FFT size must be >= 1, got {self.n}")
        if self.sign not in (FORWARD, BACKWARD):
            raise PlanError(f"sign must be -1 or +1, got {self.sign}")
        n = self.n
        self.m = next_pow2(2 * n - 1)
        j = np.arange(n)
        # chirp[j] = exp(sign * pi i j^2 / n); using j^2 mod 2n keeps the
        # argument small for large n (j^2 overflows float precision fast).
        jsq = (j.astype(np.int64) ** 2) % (2 * n)
        self.chirp = np.exp(self.sign * 1j * np.pi / n * jsq)
        b = np.zeros((1, self.m), dtype=np.complex128)
        b[0, :n] = np.conj(self.chirp)
        b[0, self.m - n + 1 :] = np.conj(self.chirp[1:][::-1])
        self._fwd = self.inner(self.m, FORWARD)
        self._bwd = self.inner(self.m, BACKWARD)
        self.bhat = self._fwd.execute(b)[0] / self.m

    def execute(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Transform the last axis of ``x`` (shape ``(..., n)``), into
        ``out`` when given."""
        if x.shape[-1] != self.n:
            raise PlanError(
                f"plan is for size {self.n}, input last axis is {x.shape[-1]}"
            )
        flat = np.asarray(x, dtype=np.complex128).reshape(-1, self.n)
        a = np.zeros((flat.shape[0], self.m), dtype=np.complex128)
        np.multiply(flat, self.chirp, out=a[:, : self.n])
        conv = self._bwd.execute(self._fwd.execute(a) * self.bhat)
        res = np.multiply(conv[:, : self.n], self.chirp,
                          out=None if out is None else out.reshape(flat.shape))
        return res.reshape(x.shape) if out is None else out
