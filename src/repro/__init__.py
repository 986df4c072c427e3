"""repro: a full reproduction of "Designing and Auto-Tuning Parallel
3-D FFT for Computation-Communication Overlap" (Song & Hollingsworth,
PPoPP 2014).

Subpackages
-----------
``repro.fft``
    From-scratch FFT substrate (gemm kernels + Bluestein, an
    FFTW-style planner with wisdom, layout transposes, real transforms).
``repro.machine``
    Analytic machine models of the paper's two platforms.
``repro.simmpi``
    Deterministic discrete-event simulated MPI with manual-progression
    non-blocking collectives.
``repro.core``
    The paper's contribution: the tiled, overlapped, ten-parameter
    parallel 3-D FFT pipeline and the compared baselines.
``repro.tuning``
    Active-Harmony-style Nelder-Mead auto-tuning with the paper's
    penalty / history / skip / log-reduction / initial-simplex
    techniques.
``repro.bench`` / ``repro.report``
    Experiment grids, paper reference data, and report rendering.

Quickstart
----------
>>> import numpy as np
>>> from repro import parallel_fft3d, UMD_CLUSTER
>>> a = np.random.default_rng(0).standard_normal((16, 16, 16)) + 0j
>>> spectrum, result = parallel_fft3d(a, p=4, platform=UMD_CLUSTER)
>>> bool(np.allclose(spectrum, np.fft.fftn(a)))
True
"""

from .core import (
    ParallelFFT3D,
    ProblemShape,
    RunResult,
    TuningParams,
    default_params,
    parallel_fft3d,
    parallel_ifft3d,
    parallel_irfft3d,
    parallel_rfft3d,
    run_case,
)
from .faults import FaultSpec, injected_faults, parse_faults
from .machine import HOPPER, UMD_CLUSTER, Platform, get_platform
from .tuning import TuningResult, autotune

__version__ = "1.0.0"

__all__ = [
    "FaultSpec",
    "HOPPER",
    "injected_faults",
    "parse_faults",
    "ParallelFFT3D",
    "Platform",
    "ProblemShape",
    "RunResult",
    "TuningParams",
    "TuningResult",
    "UMD_CLUSTER",
    "autotune",
    "default_params",
    "get_platform",
    "parallel_fft3d",
    "parallel_ifft3d",
    "parallel_irfft3d",
    "parallel_rfft3d",
    "run_case",
    "__version__",
]
