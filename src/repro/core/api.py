"""Top-level user API for the distributed 3-D FFT.

* :func:`run_case` — simulate one (variant, platform, p, N, params) cell
  and return a :class:`RunResult` with the virtual time and per-step
  breakdown.  This is what the benchmarks call.
* :func:`parallel_fft3d` / :func:`parallel_ifft3d` — transform an actual
  array on the simulated cluster and return the assembled spectrum
  (real-payload mode), through the process's cached distributed plans
  (:mod:`repro.core.distplan`): only a plan's first transform runs the
  engine;
* :func:`parallel_rfft3d` / :func:`parallel_irfft3d` — the same for the
  r2c transform of a real array and its c2r inverse.

Each returns ``(array, RunResult)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import ParameterError
from ..faults import current_faults
from ..machine.platforms import Platform
from ..simmpi.spmd import SimResult, run_spmd
from .decompose import gather_spectrum, scatter_slabs
from .distplan import DistributedFFT3D, fft3d_plan
from .params import ProblemShape, TuningParams
from .plan import BREAKDOWN_LABELS, ParallelFFT3D
from .variants import VariantSpec, baseline_params, get_variant


@dataclass
class RunResult:
    """Outcome of one simulated 3-D FFT execution."""

    variant: str
    platform: str
    shape: ProblemShape
    params: TuningParams
    elapsed: float
    breakdown: dict[str, float] = field(default_factory=dict)
    sim: SimResult | None = None

    @property
    def total_breakdown(self) -> float:
        """Sum of all per-step times (close to ``elapsed``)."""
        return sum(self.breakdown.values())

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        n = self.shape
        return (
            f"{self.variant} on {self.platform} p={n.p} "
            f"{n.nx}x{n.ny}x{n.nz}: {self.elapsed:.4f}s"
        )


def _spmd_fft(ctx, shape, params, spec, include_fixed, local_blocks):
    plan = ParallelFFT3D(ctx, shape, params, spec, include_fixed)
    local = None if local_blocks is None else local_blocks[ctx.rank]
    out = yield from plan.steps(local)
    return out, plan.output_layout


def _symmetric(shape: ProblemShape, local_blocks) -> bool:
    """Would every rank of this slab run compute rank 0's clocks?

    True for a virtual run (no payload) with no fault model, ambient
    included, on uniform slabs (``Nx`` and ``Ny`` divisible by p): each
    rank then runs the same tile loop on the same byte counts.  An
    uneven slab gives ranks different extents, a fault model perturbs
    ranks differently, and a payload run must move every rank's data."""
    return (local_blocks is None and current_faults() is None
            and shape.nx % shape.p == 0 and shape.ny % shape.p == 0)


def run_case(
    variant: str | VariantSpec,
    platform: Platform,
    shape: ProblemShape,
    params: TuningParams | None = None,
    global_array: np.ndarray | None = None,
    include_fixed_steps: bool = True,
    record_events: bool = False,
) -> tuple[RunResult, np.ndarray | None]:
    """Simulate one 3-D FFT run.

    Returns ``(result, spectrum)``; ``spectrum`` is the assembled
    ``F[kx, ky, kz]`` when ``global_array`` is given (real mode), else
    ``None`` (virtual mode).  ``params=None`` uses the variant's untuned
    baseline configuration.
    """
    spec = get_variant(variant) if isinstance(variant, str) else variant
    if params is None:
        params = baseline_params(spec, shape)
    local_blocks = None
    if global_array is not None:
        arr = np.asarray(global_array, dtype=np.complex128)
        if arr.shape != (shape.nx, shape.ny, shape.nz):
            raise ParameterError(
                f"array shape {arr.shape} != problem shape "
                f"({shape.nx}, {shape.ny}, {shape.nz})"
            )
        local_blocks = scatter_slabs(arr, shape.p)

    sim = run_spmd(
        shape.p, _spmd_fft, platform,
        shape, params, spec, include_fixed_steps, local_blocks,
        record_events=record_events,
        symmetric=_symmetric(shape, local_blocks),
    )
    result = RunResult(
        variant=spec.name,
        platform=platform.name,
        shape=shape,
        params=spec.effective_params(params, shape),
        elapsed=sim.elapsed,
        breakdown=sim.breakdown(BREAKDOWN_LABELS),
        sim=sim,
    )
    spectrum = None
    if local_blocks is not None:
        outputs = [out for (out, _layout) in sim.results]
        layout = sim.results[0][1]
        spectrum = gather_spectrum(outputs, (shape.nx, shape.ny, shape.nz), layout)
    return result, spectrum


def _plan_result(plan: DistributedFFT3D, sim: SimResult) -> RunResult:
    # A kept timeline's breakdown was averaged once, when the plan kept
    # it; a rank-span engine run brings a fresh timeline of its own.
    kept = plan.kept_breakdown(sim)
    breakdown = (dict(kept) if kept is not None
                 else sim.breakdown(BREAKDOWN_LABELS))
    return RunResult(
        variant=plan.spec.name,
        platform=plan.platform.name,
        shape=plan.shape,
        params=plan.params,
        elapsed=sim.elapsed,
        breakdown=breakdown,
        sim=sim,
    )


def _array_plan(arr, p, platform, params, variant,
                kind: str = "c2c") -> DistributedFFT3D:
    """The cached plan transforming ``arr``: its input for ``kind``
    ``"c2c"`` or ``"r2c"``, the half spectrum of an even ``Nz`` for
    ``"c2r"``."""
    if arr.ndim != 3:
        raise ParameterError(f"expected a 3-D array, got shape {arr.shape}")
    nx, ny, nz = arr.shape
    if kind == "c2r":
        nz = 2 * (nz - 1)
    return fft3d_plan(ProblemShape(nx, ny, nz, p), platform, params, variant,
                      real=kind != "c2c")


def parallel_fft3d(
    array: np.ndarray,
    p: int,
    platform: Platform,
    params: TuningParams | None = None,
    variant: str | VariantSpec = "NEW",
) -> tuple[np.ndarray, RunResult]:
    """Forward 3-D FFT of ``array`` on ``p`` simulated ranks.

    Returns ``(spectrum, result)`` where ``spectrum`` matches
    ``numpy.fft.fftn(array)`` up to round-off.  The transform runs on
    the process's cached plan (:func:`~repro.core.distplan.fft3d_plan`):
    the first call simulates it, later ones replay its timeline.
    """
    arr = np.asarray(array)
    plan = _array_plan(arr, p, platform, params, variant)
    spectrum, sim = plan.forward(arr)
    return spectrum, _plan_result(plan, sim)


def parallel_ifft3d(
    spectrum: np.ndarray,
    p: int,
    platform: Platform,
    params: TuningParams | None = None,
    variant: str | VariantSpec = "NEW",
) -> tuple[np.ndarray, RunResult]:
    """Normalized inverse 3-D FFT via the conjugation identity
    ``ifft(x) = conj(fft(conj(x))) / N`` — the paper's forward pipeline
    applied backward (Section 2.3), on the forward transform's plan."""
    arr = np.asarray(spectrum)
    plan = _array_plan(arr, p, platform, params, variant)
    out, sim = plan.backward(arr)
    return out, _plan_result(plan, sim)


def parallel_rfft3d(
    array: np.ndarray,
    p: int,
    platform: Platform,
    params: TuningParams | None = None,
    variant: str | VariantSpec = "NEW",
) -> tuple[np.ndarray, RunResult]:
    """Forward r2c transform of a real 3-D array (even ``Nz``) on ``p``
    simulated ranks; returns ``(half_spectrum, result)`` with the
    ``(Nx, Ny, Nz//2 + 1)`` half spectrum matching
    ``numpy.fft.rfftn(array)``.  Runs on the process's cached r2c plan;
    complex input raises :class:`~repro.errors.ParameterError`."""
    arr = np.asarray(array)
    if np.iscomplexobj(arr):
        raise ParameterError("an r2c transform takes real input; got a complex array")
    plan = _array_plan(arr, p, platform, params, variant, "r2c")
    half, sim = plan.forward(arr)
    return half, _plan_result(plan, sim)


def parallel_irfft3d(
    half_spectrum: np.ndarray,
    p: int,
    platform: Platform,
    params: TuningParams | None = None,
    variant: str | VariantSpec = "NEW",
) -> tuple[np.ndarray, RunResult]:
    """c2r inverse of an ``(Nx, Ny, Nz//2 + 1)`` half spectrum on ``p``
    simulated ranks, for the even ``Nz`` it implies; returns
    ``(array, result)`` with the real array matching
    ``numpy.fft.irfftn(half_spectrum)``.  Runs on the same cached plan
    as :func:`parallel_rfft3d` for that shape, with its own timeline."""
    arr = np.asarray(half_spectrum)
    plan = _array_plan(arr, p, platform, params, variant, "c2r")
    out, sim = plan.backward(arr)
    return out, _plan_result(plan, sim)
