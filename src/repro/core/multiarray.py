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

All modes share the machine-model costs of :class:`ParallelFFT3D`; real
payloads are supported (each array verified against numpy in the tests).

Like the single-array pipelines, the executor is a ``co_*`` coroutine
(:meth:`MultiArrayFFT3D.steps`) run with ``yield from`` in a generator
SPMD program, and every compute phase that progresses in-flight
exchanges is charged through
:meth:`~repro.simmpi.comm.SimContext.progress_phases`.  The golden
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
        self.plans = [
            ParallelFFT3D(ctx, shape, params, spec) for _ in range(n_arrays)
        ]

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
        for a, plan in enumerate(self.plans):
            out = yield from plan.steps(
                None if locals_ is None else locals_[a]
            )
            outs.append(out)
        return None if locals_ is None else outs

    # -- inter-array (Kandalla-style) --------------------------------------

    def _co_inter(self, locals_):
        """Whole-slab exchanges pipelined across arrays with depth 1."""
        ctx, shape = self.ctx, self.shape
        plans = self.plans
        p = self.params
        nz = shape.nz
        outs: list[Any] = [None] * self.n_arrays
        # posted-but-unwaited exchanges, FIFO: owning array and request
        owners: list[int] = []
        live: list[AlltoallRequest] = []
        data: list[Any] = [None] * self.n_arrays
        chunks: list[Any] = [None] * self.n_arrays

        for a, plan in enumerate(plans):
            local = None if locals_ is None else locals_[a]
            # FFTz + Transpose with progression on the in-flight array.
            if local is not None:
                from ..fft.transpose import xyz_to_xzy, xyz_to_zxy

                d = plan._plan("z", nz).execute(local, axis=2)
                d = xyz_to_xzy(d) if plan.use_fast_transpose else xyz_to_zxy(d)
                data[a] = d
            kind = "xzy" if plan.use_fast_transpose else plan.spec.transpose_kind
            ctx.progress_phases((
                (ctx.cpu.fft_time(nz, plan.dec.nxl * shape.ny), p.Fy, "FFTz"),
                (ctx.cpu.transpose_time(plan._tile_bytes(nz), kind), p.Fy,
                 "Transpose"),
            ), live)
            # FFTy + Pack on the whole slab.
            self._whole_slab_ffty_pack(plan, a, data, chunks, live)
            # Drain the previous array's exchange, then post this one.
            if live:
                pa = owners.pop(0)
                recv = yield from ctx.comm.co_wait(live.pop(0), label="Wait")
                outs[pa] = self._whole_slab_unpack_fftx(plans[pa], recv, live)
            live.append(ctx.comm.ialltoall(
                plan.dec.sendcounts_bytes(nz),
                plan.dec.recvcounts_bytes(nz),
                payload=chunks[a],
            ))
            owners.append(a)
            chunks[a] = None
        # Tail: drain the last exchange.
        while live:
            pa = owners.pop(0)
            recv = yield from ctx.comm.co_wait(live.pop(0), label="Wait")
            outs[pa] = self._whole_slab_unpack_fftx(plans[pa], recv, live)
        return None if locals_ is None else outs

    def _whole_slab_ffty_pack(self, plan, a, data, chunks, live):
        nz = self.shape.nz
        if data[a] is not None:
            from .packing import ffty_pack_real

            yplan = plan._plan("y", self.shape.ny)
            chunks[a] = ffty_pack_real(
                data[a],
                lambda arr: yplan.execute(arr, axis=-1),
                plan.dec.y_counts,
                plan.params.Px, min(plan.params.Pz, nz),
                plan.tile_layout,
            )
            data[a] = None
        # Both phases progress with the FFTy budget.
        Fy = self.params.Fy
        self.ctx.progress_phases((
            (plan._ffty_time(nz), Fy, "FFTy"),
            (plan._pack_time(nz), Fy, "Pack"),
        ), live)

    def _whole_slab_unpack_fftx(self, plan, recv, live):
        nz = self.shape.nz
        # Both phases progress with the Unpack budget.
        Fu = self.params.Fu
        self.ctx.progress_phases((
            (plan._unpack_time(nz), Fu, "Unpack"),
            (plan._fftx_time(nz), Fu, "FFTx"),
        ), live)
        if recv is None or recv[0] is None:
            return None
        from .packing import unpack_fftx_real

        xplan = plan._plan("x", self.shape.nx)
        return unpack_fftx_real(
            recv,
            lambda arr: xplan.execute(arr, axis=-1),
            plan.dec.x_counts,
            plan.dec.nyl,
            plan.params.Uy, min(plan.params.Uz, nz),
            plan.output_layout,
        )

    # -- combined intra + inter -------------------------------------------

    def _co_both(self, locals_):
        """NEW's tile pipeline with the window carried across arrays.

        Arrays are processed back to back; the last ``W`` exchanges of
        array ``a`` keep progressing through array ``a+1``'s FFTz,
        Transpose, and early tiles, so no window drain happens at array
        boundaries (the paper's §7 combination).
        """
        ctx = self.ctx
        p = self.params
        # Global pending window across arrays: (array, tile) of each
        # request in ``live``, FIFO.
        window: list[tuple[int, int]] = []
        live: list[AlltoallRequest] = []
        per_array_data: list[Any] = [None] * self.n_arrays
        per_array_out: list[Any] = [None] * self.n_arrays

        def drain_one():
            a, j = window.pop(0)
            recv = yield from ctx.comm.co_wait(live.pop(0), label="Wait")
            self._tile_unpack_fftx(self.plans[a], a, j, recv, per_array_out, live)

        for a, plan in enumerate(self.plans):
            local = None if locals_ is None else locals_[a]
            per_array_data[a] = self._fixed_steps(plan, local, live)
            if local is not None:
                per_array_out[a] = plan._alloc_output()
            for j in range(len(plan.tiles)):
                chunks = self._tile_ffty_pack(plan, a, j, per_array_data, live)
                if len(window) >= max(p.W, 1):
                    yield from drain_one()
                z0, z1 = plan.tiles[j]
                live.append(ctx.comm.ialltoall(
                    plan.dec.sendcounts_bytes(z1 - z0),
                    plan.dec.recvcounts_bytes(z1 - z0),
                    payload=chunks,
                ))
                window.append((a, j))
            per_array_data[a] = None
        while window:
            yield from drain_one()
        if locals_ is None:
            return None
        return per_array_out

    def _fixed_steps(self, plan, local, live):
        ctx, shape = self.ctx, self.shape
        data = None
        if local is not None:
            from ..fft.transpose import xyz_to_xzy, xyz_to_zxy

            data = plan._plan("z", shape.nz).execute(local, axis=2)
            data = xyz_to_xzy(data) if plan.use_fast_transpose else xyz_to_zxy(data)
        # Every in-flight request gets at least one test per phase.
        n = len(live)
        total = n * max(1, self.params.Fy // max(n, 1))
        kind = "xzy" if plan.use_fast_transpose else plan.spec.transpose_kind
        ctx.progress_phases((
            (ctx.cpu.fft_time(shape.nz, plan.dec.nxl * shape.ny), total, "FFTz"),
            (ctx.cpu.transpose_time(plan._tile_bytes(shape.nz), kind), total,
             "Transpose"),
        ), live)
        return data

    def _tile_ffty_pack(self, plan, a, j, data, live):
        p = self.params
        z0, z1 = plan.tiles[j]
        t_ffty, t_pack, _, _ = plan._phase_times(z1 - z0)
        self.ctx.progress_phases(
            ((t_ffty, p.Fy, "FFTy"), (t_pack, p.Fp, "Pack")), live
        )
        if data[a] is None:
            return None
        from .packing import ffty_pack_real

        yplan = plan._plan("y", self.shape.ny)
        return ffty_pack_real(
            plan._tile_view(j, data[a]),
            lambda arr: yplan.execute(arr, axis=-1),
            plan.dec.y_counts,
            p.Px, p.Pz,
            plan.tile_layout,
        )

    def _tile_unpack_fftx(self, plan, a, j, recv, outs, live):
        p = self.params
        z0, z1 = plan.tiles[j]
        _, _, t_unpack, t_fftx = plan._phase_times(z1 - z0)
        self.ctx.progress_phases(
            ((t_unpack, p.Fu, "Unpack"), (t_fftx, p.Fx, "FFTx")), live
        )
        if outs[a] is None or recv is None or recv[0] is None:
            return
        from .packing import unpack_fftx_real

        xplan = plan._plan("x", self.shape.nx)
        tile_out = unpack_fftx_real(
            recv,
            lambda arr: xplan.execute(arr, axis=-1),
            plan.dec.x_counts,
            plan.dec.nyl,
            p.Uy, p.Uz,
            plan.output_layout,
        )
        if plan.output_layout == "zyx":
            outs[a][z0:z1] = tile_out
        else:
            outs[a][:, z0:z1, :] = tile_out


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

    blocks = None
    if global_arrays is not None:
        blocks = [scatter_slabs(a, shape.p) for a in global_arrays]

    def prog(ctx):
        exe = MultiArrayFFT3D(ctx, shape, n_arrays, mode, params)
        locals_ = (
            None if blocks is None else [blocks[a][ctx.rank] for a in range(n_arrays)]
        )
        outs = yield from exe.steps(locals_)
        layout = exe.plans[0].output_layout
        return outs, layout

    sim = run_spmd(shape.p, prog, platform)
    spectra = None
    if global_arrays is not None:
        layout = sim.results[0][1]
        spectra = []
        for a in range(n_arrays):
            outs = [res[0][a] for res in sim.results]
            spectra.append(
                gather_spectrum(outs, (shape.nx, shape.ny, shape.nz), layout)
            )
    return sim, spectra
