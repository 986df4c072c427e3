"""From-scratch FFT substrate (the library's stand-in for FFTW).

The 1-D kernels are one gemm family (:mod:`repro.fft.dftmat`), dense
and two-factor, plus Bluestein for large prime factors; the planner
(:mod:`repro.fft.plan`) ranks them by a BLAS-aware cost model.

Public surface:

* :class:`Plan1D`, :class:`Plan3D`, :class:`Flag` -- planned transforms
  with FFTW-style effort levels and wisdom;
* :func:`fft` / :func:`ifft` / :func:`fftn` / :func:`ifftn` -- one-shot
  conveniences;
* :func:`rfft`, :func:`irfft` -- one-shot real transforms (a real
  :class:`Plan1D`, ``real=True``, is the planned form);
* layout rearrangement in :mod:`repro.fft.transpose`;
* :data:`GLOBAL_WISDOM` -- the process-wide planner cache.
"""

from .dftmat import BACKWARD, FORWARD, direct_dft
from .plan import (
    Flag,
    Plan1D,
    Plan3D,
    clear_plan_cache,
    default_planning_flag,
    fft,
    fftn,
    ifft,
    ifftn,
    planning_effort,
)
from .realfft import irfft, rfft
from .wisdom import GLOBAL_WISDOM, WisdomStore

__all__ = [
    "BACKWARD",
    "FORWARD",
    "Flag",
    "GLOBAL_WISDOM",
    "Plan1D",
    "Plan3D",
    "WisdomStore",
    "clear_plan_cache",
    "default_planning_flag",
    "direct_dft",
    "fft",
    "fftn",
    "ifft",
    "ifftn",
    "irfft",
    "planning_effort",
    "rfft",
]
