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
from ..simmpi.spmd import run_spmd
from .decompose import gather_spectrum, scatter_slabs
from .params import ProblemShape, TuningParams, default_params
from .plan import ParallelFFT3D
from .variants import NEW, VariantSpec


def rfft_z_cost(cpu, nz: int, batch: int) -> float:
    """Seconds for ``batch`` r2c transforms of length ``nz``: one
    half-length complex FFT plus O(n) unpacking."""
    half = max(nz // 2, 1)
    return cpu.fft_time(half, batch) + 8.0 * half * batch / cpu.flops


class ParallelRFFT3D:
    """Per-rank plan: real ``(nxl, ny, nz)`` block in, half spectrum out.

    The output block is the complex pipeline's output for the reduced
    shape ``(nx, ny, nz//2 + 1)`` — layout ``zyx``/``yzx`` as usual.
    """

    def __init__(
        self,
        ctx: SimContext,
        shape: ProblemShape,
        params: TuningParams | None = None,
        spec: VariantSpec = NEW,
    ) -> None:
        if shape.nz % 2 != 0:
            raise ParameterError(
                f"real transform needs even Nz, got {shape.nz}"
            )
        self.ctx = ctx
        self.shape = shape
        self.nzh = shape.nz // 2 + 1
        self.half_shape = ProblemShape(shape.nx, shape.ny, self.nzh, shape.p)
        if params is None:
            params = default_params(self.half_shape)
        else:
            # Clamp tile extents to the reduced z extent.
            params = params.replace(
                T=min(params.T, self.nzh),
                Pz=min(params.Pz, min(params.T, self.nzh)),
                Uz=min(params.Uz, min(params.T, self.nzh)),
            )
        self.inner = ParallelFFT3D(
            ctx, self.half_shape, params, spec, fftz_mode="none"
        )
        self._rplan: RealPlan1D | None = None

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
            half = self._rplan.rfft(np.asarray(local, dtype=np.float64))
        ctx.compute(rfft_z_cost(ctx.cpu, nz, dec.nxl * ny), "FFTz")
        return (yield from self.inner.steps(half))


def parallel_rfft3d(
    array: np.ndarray,
    p: int,
    platform: Platform,
    params: TuningParams | None = None,
    variant: VariantSpec = NEW,
):
    """Forward r2c transform of a real 3-D array on ``p`` simulated
    ranks; returns ``(half_spectrum, SimResult)`` with the half spectrum
    matching ``numpy.fft.rfftn(array)``."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim != 3:
        raise ParameterError(f"expected a 3-D array, got shape {arr.shape}")
    nx, ny, nz = arr.shape
    shape = ProblemShape(nx, ny, nz, p)
    blocks = scatter_slabs(arr, p)

    def prog(ctx):
        plan = ParallelRFFT3D(ctx, shape, params, variant)
        out = yield from plan.steps(blocks[ctx.rank])
        return out, plan.output_layout

    sim = run_spmd(p, prog, platform)
    outs = [o for (o, _l) in sim.results]
    layout = sim.results[0][1]
    spectrum = gather_spectrum(outs, (nx, ny, nz // 2 + 1), layout)
    return spectrum, sim


def r2c_comm_savings(nz: int) -> float:
    """Fraction of c2c communication volume the r2c pipeline ships."""
    return (nz // 2 + 1) / nz
