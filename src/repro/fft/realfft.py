"""Real-input transforms on the gemm kernel family.

The paper's Section 2.3 notes its overlap method "is also applicable to
the techniques for the real-to-complex transform"; this module provides
that substrate's one-shot forms: an ``rfft`` that maps a real sequence
of even length ``n`` to its ``n//2 + 1`` half spectrum, and the matching
normalized ``irfft``, which ignores the imaginary parts of the first and
(``n/2``-th) last coefficient as ``numpy.fft.irfft`` does.  Both run a
real :class:`~repro.fft.plan.Plan1D` (``real=True``), so the planner
picks their kernels: one real gemm up to ``DIRECT_MAX``
(:class:`~repro.fft.dftmat.RealDirectPlan`), and above it the classic
packing trick around one complex transform of ``n/2`` (Sorensen et al.
[26] in the paper's bibliography;
:class:`~repro.fft.dftmat.PackedRealPlan`).  Planned users (the real
3-D pipelines) hold the two real plans themselves.
"""

from __future__ import annotations

import numpy as np

from .dftmat import BACKWARD, FORWARD
from .plan import Plan1D


def rfft(x: np.ndarray) -> np.ndarray:
    """One-shot forward real FFT along the last axis (even length):
    real ``(..., n)`` to complex ``(..., n//2 + 1)``, matching
    ``numpy.fft.rfft``."""
    return Plan1D(np.asarray(x).shape[-1], FORWARD, real=True).execute(x)


def irfft(spec: np.ndarray, n: int | None = None) -> np.ndarray:
    """One-shot inverse real FFT along the last axis (normalized):
    complex ``(..., n//2 + 1)`` to real ``(..., n)``, matching
    ``numpy.fft.irfft``."""
    if n is None:
        n = 2 * (np.asarray(spec).shape[-1] - 1)
    return Plan1D(n, BACKWARD, real=True).execute(spec)
