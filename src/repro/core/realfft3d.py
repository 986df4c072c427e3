"""Distributed real-to-complex 3-D FFT and its complex-to-real inverse.

Section 2.3 of the paper: "There are special techniques that can
transform real numbers to complex numbers faster than the complex-to-
complex transform.  Our methods for computation-communication overlap
[are] also applicable to the techniques for the real-to-complex
transform."  This module is that application.  In the r2c forward
(:class:`ParallelRFFT3D`) the z-axis FFT becomes an r2c transform
(a real :class:`~repro.fft.plan.Plan1D`), producing ``Nz//2 + 1``
half-spectrum planes; everything downstream — Transpose, the tiled
overlapped exchange, FFTy, FFTx — runs the unchanged complex pipeline
on the reduced z extent, so both the computation on z and the *entire
communication volume* are nearly halved.  The c2r inverse
(:class:`ParallelIRFFT3D`) sends the half spectrum through the same
pipeline with backward-sign y and x plans and ends with a local c2r on
z of each rank's post-exchange block.  Like the complex pipeline, both
``steps`` are ``co_*`` coroutines run with ``yield from`` in a
generator SPMD program.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..fft.dftmat import BACKWARD, FORWARD
from ..fft.plan import Plan1D
from ..simmpi.comm import SimContext
from .packing import ITEMSIZE
from .params import ProblemShape, TuningParams, default_params
from .plan import ParallelFFT3D, SlabDataPath
from .variants import NEW, VariantSpec, get_variant


def rfft_z_cost(cpu, nz: int, batch: int) -> float:
    """Seconds for ``batch`` r2c (or c2r) transforms of length ``nz``:
    one half-length complex FFT plus O(n) unpacking."""
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


def rfft_z(r2c: Plan1D, local: np.ndarray) -> np.ndarray:
    """The r2c front end's data stage: the local real block's z lines to
    their ``Nz//2 + 1`` half-spectrum planes with the real plan ``r2c``."""
    return r2c.execute(np.asarray(local, dtype=np.float64))


#: the permutation that takes a pipeline output block to z-last
#: ``(x, y, z)`` order, by output layout
_TO_XYZ = {"zyx": (2, 1, 0), "yzx": (2, 0, 1)}


def irfft_z(c2r: Plan1D, block: np.ndarray, layout: str,
            scale: float, work: np.ndarray | None = None) -> np.ndarray:
    """The c2r back end's data stage: a post-exchange half-spectrum
    block in ``layout`` order, permuted to ``(x, y, z)`` and scaled by
    ``scale`` in one pass (into ``work``, a C-contiguous array of that
    shape, when given), then its z lines to ``Nz`` reals in a fresh
    array with the real plan ``c2r``.  The engine run calls it on each rank's block and the
    whole-array replay (:mod:`repro.core.distplan`) on the whole
    array."""
    xyz = np.multiply(block.transpose(_TO_XYZ[layout]), scale, order="C",
                      out=work)
    return c2r.execute(xyz)


def inverse_plans(shape: ProblemShape) -> dict[str, Plan1D]:
    """The c2r pipeline's plans: the c2r on z and the backward-sign y
    and x plans."""
    return {"z": Plan1D(shape.nz, BACKWARD, real=True),
            "y": Plan1D(shape.ny, BACKWARD), "x": Plan1D(shape.nx, BACKWARD)}


class ParallelRFFT3D:
    """Per-rank plan: real ``(nxl, ny, nz)`` block in, half spectrum out.

    The output block is the complex pipeline's output for the reduced
    shape ``(nx, ny, nz//2 + 1)`` — layout ``zyx``/``yzx`` as usual.
    ``path`` and ``zplan`` are a distributed plan's prebuilt data path
    and real z plan (r2c) for this rank; by default the plan builds its
    own.
    """

    def __init__(
        self,
        ctx: SimContext,
        shape: ProblemShape,
        params: TuningParams | None = None,
        spec: str | VariantSpec = NEW,
        path: SlabDataPath | None = None,
        zplan: Plan1D | None = None,
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
        self._zplan = zplan

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
            if self._zplan is None:
                self._zplan = Plan1D(nz, FORWARD, real=True)
            half = rfft_z(self._zplan, local)
        ctx.compute(rfft_z_cost(ctx.cpu, nz, dec.nxl * ny), "FFTz")
        return (yield from self.inner.steps(half))


class ParallelIRFFT3D:
    """Per-rank plan for the c2r inverse: the ``(nxl, ny, Nz//2 + 1)``
    x-slab of a half spectrum in, the rank's ``(nx, nyl, nz)`` y-slab of
    the real array out (layout ``"xyz"``), normalized like
    ``numpy.fft.irfftn``.

    The half spectrum takes the complex pipeline on the reduced shape
    with no FFTz up front and backward-sign y and x plans; after the
    exchange the rank permutes its block to z-last, folding in the
    ``1/(Nx*Ny)`` normalization (charged as a Transpose), and runs the
    c2r on z (charged as FFTz), whose matrix carries the ``1/Nz``.
    ``path`` and ``zplan`` are a distributed plan's prebuilt backward
    data path and real z plan (c2r) for this rank; by default the plan
    builds its own.
    """

    output_layout = "xyz"

    def __init__(
        self,
        ctx: SimContext,
        shape: ProblemShape,
        params: TuningParams | None = None,
        spec: str | VariantSpec = NEW,
        path: SlabDataPath | None = None,
        zplan: Plan1D | None = None,
    ) -> None:
        if shape.nz % 2 != 0:
            raise ParameterError(f"real transform needs even Nz, got {shape.nz}")
        if isinstance(spec, str):
            spec = get_variant(spec)
        self.ctx = ctx
        self.shape = shape
        self.half_shape = ProblemShape(shape.nx, shape.ny, shape.nz // 2 + 1, shape.p)
        hparams = spec.effective_params(half_params(params, self.half_shape),
                                        self.half_shape)
        if path is None:
            path = SlabDataPath(self.half_shape, hparams, spec, ctx.comm.rank,
                                "none", inverse_plans(shape))
        self.inner = ParallelFFT3D(ctx, self.half_shape, hparams, spec,
                                   fftz_mode="none", path=path)
        self._zplan = zplan

    def steps(self, half: np.ndarray | None = None):
        """c2r inverse of the local half-spectrum block (or a virtual
        timing run) as a coroutine (``yield from`` it in a generator
        SPMD program)."""
        ctx, inner = self.ctx, self.inner
        block = yield from inner.steps(half)
        nx, nyl = self.shape.nx, inner.dec.nyl
        kind = "xzy" if inner.use_fast_transpose else inner.spec.transpose_kind
        ctx.compute(ctx.cpu.transpose_time(
            nx * nyl * self.half_shape.nz * ITEMSIZE, kind), "Transpose")
        ctx.compute(rfft_z_cost(ctx.cpu, self.shape.nz, nx * nyl), "FFTz")
        if block is None:
            return None
        if self._zplan is None:
            self._zplan = Plan1D(self.shape.nz, BACKWARD, real=True)
        return irfft_z(self._zplan, block, inner.output_layout,
                       1.0 / (nx * self.shape.ny))


def r2c_comm_savings(nz: int) -> float:
    """Fraction of c2c communication volume the r2c pipeline ships."""
    return (nz // 2 + 1) / nz
