"""The paper's contribution: overlapped, auto-tunable parallel 3-D FFT.

Public surface: problem/parameter types, the per-rank pipeline plan, the
compared variants, the cached distributed plans and the array-level
convenience API.
"""

from .api import (
    BREAKDOWN_LABELS,
    RunResult,
    parallel_fft3d,
    parallel_ifft3d,
    parallel_irfft3d,
    parallel_rfft3d,
    run_case,
)
from .decompose import Decomposition, gather_spectrum, scatter_slabs
from .distplan import DistributedFFT3D, fft3d_plan
from .multiarray import MultiArrayFFT3D, run_multi_array
from .pencil import GridShape, PencilFFT3D
from .realfft3d import ParallelIRFFT3D, ParallelRFFT3D
from .params import PARAM_NAMES, ProblemShape, TuningParams, default_params
from .plan import ParallelFFT3D
from .variants import (
    FFTW_BASELINE,
    NEW,
    NEW0,
    TH,
    TH0,
    VARIANTS,
    VariantSpec,
    baseline_params,
    get_variant,
)

__all__ = [
    "BREAKDOWN_LABELS",
    "Decomposition",
    "DistributedFFT3D",
    "FFTW_BASELINE",
    "GridShape",
    "MultiArrayFFT3D",
    "NEW",
    "NEW0",
    "PARAM_NAMES",
    "ParallelFFT3D",
    "ParallelIRFFT3D",
    "ParallelRFFT3D",
    "PencilFFT3D",
    "ProblemShape",
    "RunResult",
    "TH",
    "TH0",
    "TuningParams",
    "VARIANTS",
    "VariantSpec",
    "baseline_params",
    "default_params",
    "fft3d_plan",
    "gather_spectrum",
    "get_variant",
    "parallel_fft3d",
    "parallel_ifft3d",
    "parallel_irfft3d",
    "parallel_rfft3d",
    "run_multi_array",
    "run_case",
    "scatter_slabs",
]
