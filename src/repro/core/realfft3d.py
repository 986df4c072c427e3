"""Distributed real-to-complex 3-D FFT.

Section 2.3 of the paper: "There are special techniques that can
transform real numbers to complex numbers faster than the complex-to-
complex transform.  Our methods for computation-communication overlap
[are] also applicable to the techniques for the real-to-complex
transform."  This module is that application: the z-axis FFT becomes an
r2c transform (via the packed half-length trick in
:mod:`repro.fft.realfft`), producing ``Nz//2 + 1`` half-spectrum planes;
everything downstream — Transpose, the tiled overlapped exchange, FFTy,
FFTx — runs the unchanged complex pipeline on the reduced z extent, so
both the computation on z and the *entire communication volume* are
nearly halved.  Like the complex pipeline, :meth:`ParallelRFFT3D.steps`
is a ``co_*`` coroutine run with ``yield from`` in a generator SPMD
program.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..fft.realfft import RealPlan1D
from ..machine.platforms import Platform
from ..simmpi.comm import SimContext
from .params import ProblemShape, TuningParams, default_params
from .plan import ParallelFFT3D, SlabDataPath
from .variants import NEW, VariantSpec, get_variant


def rfft_z_cost(cpu, nz: int, batch: int) -> float:
    """Seconds for ``batch`` r2c transforms of length ``nz``: one
    half-length complex FFT plus O(n) unpacking."""
    half = max(nz // 2, 1)
    return cpu.fft_time(half, batch) + 8.0 * half * batch / cpu.flops


def half_params(params: TuningParams | None, half_shape: ProblemShape) -> TuningParams:
    """The r2c exchange's parameters: the defaults for the half shape,
    or ``params`` with its tile extents clamped to the reduced z extent."""
    if params is None:
        return default_params(half_shape)
    nzh = half_shape.nz
    tz = min(params.T, nzh)
    return params.replace(T=tz, Pz=min(params.Pz, tz), Uz=min(params.Uz, tz))


def rfft_z(rplan: RealPlan1D, local: np.ndarray) -> np.ndarray:
    """The r2c front end's data stage: the local real block's z lines to
    their ``Nz//2 + 1`` half-spectrum planes."""
    return rplan.rfft(np.asarray(local, dtype=np.float64))


class ParallelRFFT3D:
    """Per-rank plan: real ``(nxl, ny, nz)`` block in, half spectrum out.

    The output block is the complex pipeline's output for the reduced
    shape ``(nx, ny, nz//2 + 1)`` — layout ``zyx``/``yzx`` as usual.
    ``path`` and ``rplan`` are a distributed plan's prebuilt data path
    and r2c plan for this rank; by default the plan builds its own.
    """

    def __init__(
        self,
        ctx: SimContext,
        shape: ProblemShape,
        params: TuningParams | None = None,
        spec: str | VariantSpec = NEW,
        path: SlabDataPath | None = None,
        rplan: RealPlan1D | None = None,
    ) -> None:
        if shape.nz % 2 != 0:
            raise ParameterError(
                f"real transform needs even Nz, got {shape.nz}"
            )
        if isinstance(spec, str):
            spec = get_variant(spec)
        self.ctx = ctx
        self.shape = shape
        self.nzh = shape.nz // 2 + 1
        self.half_shape = ProblemShape(shape.nx, shape.ny, self.nzh, shape.p)
        self.inner = ParallelFFT3D(
            ctx, self.half_shape, half_params(params, self.half_shape), spec,
            fftz_mode="none", path=path,
        )
        self._rplan = rplan

    @property
    def output_layout(self) -> str:
        """Output block layout: ``"zyx"`` or ``"yzx"``."""
        return self.inner.output_layout

    def steps(self, local: np.ndarray | None = None):
        """r2c transform of the local block (or a virtual timing run) as
        a coroutine (``yield from`` it in a generator SPMD program)."""
        ctx = self.ctx
        dec = self.inner.dec
        ny, nz = self.shape.ny, self.shape.nz
        half = None
        if local is not None:
            expected = (dec.nxl, ny, nz)
            if tuple(local.shape) != expected:
                raise ParameterError(
                    f"expected real local block {expected}, got {tuple(local.shape)}"
                )
            if self._rplan is None:
                self._rplan = RealPlan1D(nz)
            half = rfft_z(self._rplan, local)
        ctx.compute(rfft_z_cost(ctx.cpu, nz, dec.nxl * ny), "FFTz")
        return (yield from self.inner.steps(half))


def parallel_rfft3d(
    array: np.ndarray,
    p: int,
    platform: Platform,
    params: TuningParams | None = None,
    variant: str | VariantSpec = NEW,
):
    """Forward r2c transform of a real 3-D array on ``p`` simulated
    ranks; returns ``(half_spectrum, SimResult)`` with the half spectrum
    matching ``numpy.fft.rfftn(array)``.  Runs on the process's cached
    r2c plan (:func:`~repro.core.distplan.fft3d_plan`); complex input
    raises :class:`~repro.errors.ParameterError`."""
    from .distplan import fft3d_plan  # distplan builds on this module

    arr = np.asarray(array)
    if np.iscomplexobj(arr):
        raise ParameterError("an r2c transform takes real input; got a complex array")
    if arr.ndim != 3:
        raise ParameterError(f"expected a 3-D array, got shape {arr.shape}")
    plan = fft3d_plan(ProblemShape(*arr.shape, p), platform, params, variant,
                      real=True)
    return plan.forward(arr)


def r2c_comm_savings(nz: int) -> float:
    """Fraction of c2c communication volume the r2c pipeline ships."""
    return (nz // 2 + 1) / nz
