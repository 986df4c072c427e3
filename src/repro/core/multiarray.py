"""Multi-array 3-D FFT: inter-array vs intra-array overlap.

The paper contrasts its *intra-array* overlap with Kandalla et al.'s
*inter-array* approach — overlapping the computation on one input array
with the communication for other, independent arrays — and names
combining both as future work (Sections 6-7).  This module implements
the whole spectrum so the comparison is runnable:

``sequential``
    the FFTW-style blocking pipeline per array, one array at a time;
``inter``
    Kandalla-style: each array is one exchange; array ``i``'s computation
    progresses array ``i-1``'s non-blocking all-to-all.  Useless when
    there is only one array — the paper's core criticism;
``intra``
    the paper's NEW applied to each array in turn;
``both``
    NEW's tile pipeline with the window carried *across* array
    boundaries, plus progression during the next array's FFTz/Transpose
    — the paper's "both intra-array and inter-array overlap" goal.

The arrays share shape, variant, tiles and 1-D plans, so a rank builds
one :class:`ParallelFFT3D` for all of them and the executor keeps only
the timeline.  Real payloads run through the plan's
:class:`~repro.core.plan.SlabDataPath` on each array's whole slab, as
the slab pipeline does: FFTz+Transpose and FFTy+Pack once, each tile's
exchange posting z-range views of the send buffers, and Unpack+FFTx
once after the array's last Wait — three 1-D kernel calls and two
mover calls per array per rank in every mode.

The executor is a ``co_*`` coroutine (:meth:`MultiArrayFFT3D.steps`)
charging every phase that progresses in-flight exchanges through
:meth:`~repro.simmpi.comm.SimContext.progress_phases`; the golden
fixture ``tests/core/payload_golden.json`` pins every mode's clocks,
scheduler counters, event timelines and spectra.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import ParameterError
from ..simmpi.comm import SimContext
from ..simmpi.request import AlltoallRequest
from .params import ProblemShape, TuningParams, default_params
from .plan import ParallelFFT3D
from .variants import FFTW_BASELINE, NEW

MODES = ("sequential", "inter", "intra", "both")


class MultiArrayFFT3D:
    """Per-rank executor for ``n_arrays`` successive/independent FFTs."""

    def __init__(
        self,
        ctx: SimContext,
        shape: ProblemShape,
        n_arrays: int,
        mode: str = "both",
        params: TuningParams | None = None,
    ) -> None:
        if mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")
        if n_arrays < 1:
            raise ParameterError(f"need at least one array, got {n_arrays}")
        self.ctx = ctx
        self.shape = shape
        self.n_arrays = n_arrays
        self.mode = mode
        if params is None:
            params = default_params(shape)
        self.params = params
        spec = FFTW_BASELINE if mode in ("sequential", "inter") else NEW
        if mode == "inter":
            # One exchange per array, posted non-blocking.
            params = params.replace(T=shape.nz)
        self.plan = ParallelFFT3D(ctx, shape, params, spec)
        self.output_layout = self.plan.output_layout

    # -- execution -------------------------------------------------------

    def steps(self, locals_: list[np.ndarray] | None = None):
        """Transform all arrays as a ``co_*`` coroutine (``yield from``
        it in a generator SPMD program); returns per-array local outputs
        (real mode) or ``None``."""
        if locals_ is not None and len(locals_) != self.n_arrays:
            raise ParameterError(
                f"expected {self.n_arrays} local blocks, got {len(locals_)}"
            )
        if self.mode in ("sequential", "intra"):
            # NEW plans overlap inside each array.
            return (yield from self._co_sequential(locals_))
        if self.mode == "inter":
            return (yield from self._co_inter(locals_))
        return (yield from self._co_both(locals_))

    def _co_sequential(self, locals_):
        outs = []
        for local in [None] * self.n_arrays if locals_ is None else locals_:
            outs.append((yield from self.plan.steps(local)))
        return None if locals_ is None else outs

    def _fixed_phases(self, budget: int, live) -> None:
        """Charge FFTz + Transpose with ``budget`` tests per phase."""
        ctx, plan, nz = self.ctx, self.plan, self.shape.nz
        kind = "xzy" if plan.use_fast_transpose else plan.spec.transpose_kind
        ctx.progress_phases((
            (ctx.cpu.fft_time(nz, plan.dec.nxl * self.shape.ny), budget, "FFTz"),
            (ctx.cpu.transpose_time(plan._tile_bytes(nz), kind), budget,
             "Transpose"),
        ), live)

    # -- inter-array (Kandalla-style) --------------------------------------

    def _co_inter(self, locals_):
        """Whole-slab exchanges pipelined across arrays with depth 1."""
        ctx, plan, path = self.ctx, self.plan, self.plan.path
        Fy, Fu, nz = self.params.Fy, self.params.Fu, self.shape.nz
        real = locals_ is not None
        t_ffty, t_pack, t_unpack, t_fftx = plan._phase_times(nz)
        outs: list[Any] = [None] * self.n_arrays
        # posted-but-unwaited exchanges, FIFO: owning array and request
        owners: list[int] = []
        live: list[AlltoallRequest] = []

        def drain_one():
            pa = owners.pop(0)
            recv = yield from ctx.comm.co_wait(live.pop(0), label="Wait")
            # Both phases progress with the Unpack budget.
            ctx.progress_phases(
                ((t_unpack, Fu, "Unpack"), (t_fftx, Fu, "FFTx")), live
            )
            if real:
                outs[pa] = path.unpack_fftx(recv)

        for a in range(self.n_arrays):
            chunks = (path.ffty_pack(path.fftz_transpose(locals_[a]))
                      if real else None)
            # FFTz + Transpose, then FFTy + Pack on the whole slab, all
            # progressing the in-flight array with the FFTy budget.
            self._fixed_phases(Fy, live)
            ctx.progress_phases(
                ((t_ffty, Fy, "FFTy"), (t_pack, Fy, "Pack")), live
            )
            # Drain the previous array's exchange, then post this one.
            if live:
                yield from drain_one()
            live.append(ctx.comm.ialltoall(
                plan.dec.sendcounts_bytes(nz),
                plan.dec.recvcounts_bytes(nz),
                payload=chunks,
            ))
            owners.append(a)
        # Tail: drain the last exchange.
        while live:
            yield from drain_one()
        return outs if real else None

    # -- combined intra + inter -------------------------------------------

    def _co_both(self, locals_):
        """NEW's tile pipeline with the window carried across arrays.

        Arrays are processed back to back; the last ``W`` exchanges of
        array ``a`` keep progressing through array ``a+1``'s FFTz,
        Transpose, and early tiles, so no window drain happens at array
        boundaries (the paper's §7 combination).
        """
        ctx, plan, path = self.ctx, self.plan, self.plan.path
        p = self.params
        tiles = plan.tiles
        real = locals_ is not None
        # Global pending window across arrays: (array, tile) of each
        # request in ``live``, FIFO.
        window: list[tuple[int, int]] = []
        live: list[AlltoallRequest] = []
        recvd: dict[int, list[Any]] = {}  # array -> its tiles' receives
        outs: list[Any] = [None] * self.n_arrays

        def drain_one():
            a, j = window.pop(0)
            recv = yield from ctx.comm.co_wait(live.pop(0), label="Wait")
            z0, z1 = tiles[j]
            _, _, t_unpack, t_fftx = plan._phase_times(z1 - z0)
            ctx.progress_phases(
                ((t_unpack, p.Fu, "Unpack"), (t_fftx, p.Fx, "FFTx")), live
            )
            if real:
                recvd.setdefault(a, []).append(recv)
                if j == len(tiles) - 1:
                    # each source's tiles joined along z: its whole-slab chunk
                    joined = [np.concatenate(src) for src in zip(*recvd.pop(a))]
                    outs[a] = path.unpack_fftx(joined)

        for a in range(self.n_arrays):
            chunks = (path.ffty_pack(path.fftz_transpose(locals_[a]))
                      if real else None)
            # Every in-flight request gets at least one test per phase.
            n = len(live)
            self._fixed_phases(n * max(1, p.Fy // max(n, 1)), live)
            for j, (z0, z1) in enumerate(tiles):
                t_ffty, t_pack, _, _ = plan._phase_times(z1 - z0)
                ctx.progress_phases(
                    ((t_ffty, p.Fy, "FFTy"), (t_pack, p.Fp, "Pack")), live
                )
                if len(window) >= max(p.W, 1):
                    yield from drain_one()
                live.append(ctx.comm.ialltoall(
                    plan.dec.sendcounts_bytes(z1 - z0),
                    plan.dec.recvcounts_bytes(z1 - z0),
                    payload=None if chunks is None else [c[z0:z1] for c in chunks],
                ))
                window.append((a, j))
        while window:
            yield from drain_one()
        return outs if real else None


def run_multi_array(
    platform,
    shape: ProblemShape,
    n_arrays: int,
    mode: str,
    params: TuningParams | None = None,
    global_arrays: list[np.ndarray] | None = None,
):
    """SPMD driver: returns ``(SimResult, spectra | None)``."""
    from ..simmpi.spmd import run_spmd
    from .decompose import gather_spectrum, scatter_slabs

    dims = (shape.nx, shape.ny, shape.nz)
    blocks = None
    if global_arrays is not None:
        got = [np.shape(a) for a in global_arrays]
        if got != [dims] * n_arrays:
            raise ParameterError(
                f"expected {n_arrays} arrays of shape {dims}, got shapes {got}"
            )
        blocks = [scatter_slabs(a, shape.p) for a in global_arrays]

    def prog(ctx):
        exe = MultiArrayFFT3D(ctx, shape, n_arrays, mode, params)
        locals_ = None if blocks is None else [b[ctx.rank] for b in blocks]
        outs = yield from exe.steps(locals_)
        return outs, exe.output_layout

    sim = run_spmd(shape.p, prog, platform)
    spectra = None
    if global_arrays is not None:
        layout = sim.results[0][1]
        spectra = []
        for a in range(n_arrays):
            outs = [res[0][a] for res in sim.results]
            spectra.append(gather_spectrum(outs, dims, layout))
    return sim, spectra
