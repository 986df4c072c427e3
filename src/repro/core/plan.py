"""The parallel 3-D FFT pipeline (Section 3, Algorithms 1-3).

:class:`ParallelFFT3D` is the per-rank plan an SPMD function builds and
executes.  One code path serves every compared method — the
:class:`~repro.core.variants.VariantSpec` decides whether the exchange is
non-blocking, which steps progress it, and whether Pack/Unpack are loop-
tiled — and serves both payload modes:

* **real**: the local slab is an actual complex array and the final
  result is the true distributed FFT (verified against
  ``numpy.fft.fftn`` in the tests).  The numpy work costs no virtual
  time, so it runs on the whole slab rather than tile by tile: one
  FFTy+Pack before the tile loop, one Unpack+FFTx after its last Wait;
  the loop posts each tile's z-range of the packed send buffers;
* **virtual**: only byte counts flow; the control flow, communication
  and virtual-time accounting are identical, which is what makes the
  paper's 2048-cubed / 256-rank cases simulatable.

Both modes, traced or not, run the same tile loop (per-tile trace
attributes are built only when a tracer is installed).  The numpy half
of a real run lives in :class:`SlabDataPath`, the engine run's per-rank
data path; the timeline replay of :mod:`repro.core.distplan` runs the
same 1-D plans on the whole array instead.

The pipeline is a ``co_*`` coroutine (:meth:`ParallelFFT3D.steps`) that
a generator SPMD program runs with ``yield from``; every compute phase
that progresses the in-flight exchanges is charged through the one
primitive :meth:`~repro.simmpi.comm.SimContext.progress_phases`.

Step labels traced to the engine (:data:`BREAKDOWN_LABELS`) are exactly
the Figure 8 legend.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import ParameterError
from ..fft.plan import Plan1D
from ..fft.transpose import xyz_to_xzy, xyz_to_zxy
from ..machine.cpu import CpuModel
from ..simmpi.comm import SimContext
from ..simmpi.request import AlltoallRequest
from .decompose import Decomposition
from .packing import (
    ITEMSIZE,
    ffty_pack_real,
    pack_cost,
    unpack_cost,
    unpack_fftx_real,
    untiled_copy_cost,
)
from .params import ProblemShape, TuningParams
from .variants import NEW, VariantSpec

#: Step labels in the paper's Figure 8 stacking order.
BREAKDOWN_LABELS = [
    "FFTz", "Transpose", "FFTy", "Pack", "Unpack", "FFTx",
    "Ialltoall", "Wait", "Test",
]


class SlabDataPath:
    """One rank's numpy data path, with no simulator state.

    It holds the rank's decomposition, its tile and output layouts and
    the 1-D plans, and runs the three stages of a real-payload
    transform: :meth:`fftz_transpose`, :meth:`ffty_pack` and
    :meth:`unpack_fftx`.  The engine runs (:meth:`ParallelFFT3D.steps`
    and every mode of :mod:`repro.core.multiarray`) call these stages
    once per array on its whole slab; the timeline replay of
    :mod:`repro.core.distplan` runs the same 1-D plans on the whole
    array and is checked against them bit for bit.

    ``params`` must already be the variant's effective parameters.
    ``plans`` maps an axis name to its :class:`Plan1D`; a distributed
    plan passes one dict to all its ranks, so the ranks share their
    1-D plans.  Missing plans are built on first use.
    """

    def __init__(
        self,
        shape: ProblemShape,
        params: TuningParams,
        spec: VariantSpec,
        rank: int,
        fftz_mode: str = "complex",
        plans: dict[str, Plan1D] | None = None,
    ) -> None:
        if fftz_mode not in ("complex", "none"):
            raise ParameterError(f"bad fftz_mode {fftz_mode!r}")
        self.shape = shape
        self.params = params
        self.spec = spec
        self.fftz_mode = fftz_mode
        self.dec = Decomposition(shape.nx, shape.ny, shape.nz, shape.p, rank)
        #: fast x-z-y Transpose is legal only when Nx == Ny (Section 3.5)
        self.use_fast_transpose = spec.fast_transpose and shape.nx == shape.ny
        self.tile_layout = "xzy" if self.use_fast_transpose else "zxy"
        #: output layout: y-z-x under the fast path, z-y-x otherwise
        self.output_layout = "yzx" if self.use_fast_transpose else "zyx"
        self.plans = {} if plans is None else plans

    def plan(self, axis: str, n: int) -> Plan1D:
        """The 1-D plan for ``axis`` (built on first use)."""
        plan = self.plans.get(axis)
        if plan is None:
            plan = self.plans[axis] = Plan1D(n)
        return plan

    def fftz_transpose(self, local: np.ndarray) -> np.ndarray:
        """FFTz (unless the caller already transformed z) and the
        Transpose of the local ``(nxl, ny, nz)`` block."""
        expected = (self.dec.nxl, self.shape.ny, self.shape.nz)
        if tuple(local.shape) != expected:
            raise ParameterError(
                f"rank {self.dec.rank} expected local block {expected}, "
                f"got {tuple(local.shape)}"
            )
        if self.fftz_mode == "complex":
            data = self.plan("z", self.shape.nz).execute(local, axis=2)
        else:
            data = np.asarray(local, dtype=np.complex128)
        return xyz_to_xzy(data) if self.use_fast_transpose else xyz_to_zxy(data)

    def ffty_pack(self, data: np.ndarray) -> list[np.ndarray]:
        """FFTy + Pack of the whole transposed slab: per-destination
        ``(nz, nxl, nyl_d)`` send buffers."""
        plan = self.plan("y", self.shape.ny)
        return ffty_pack_real(
            data,
            lambda a: plan.execute(a, axis=-1),
            self.dec.y_counts,
            self.tile_layout,
        )

    def unpack_fftx(self, recv: list[np.ndarray]) -> np.ndarray:
        """Unpack + FFTx of every source's whole-slab chunk
        (``recv[s]`` is ``(nz, nxl_s, nyl)``) into the output block."""
        plan = self.plan("x", self.shape.nx)
        return unpack_fftx_real(
            recv,
            lambda a: plan.execute(a, axis=-1),
            self.dec.x_counts,
            self.dec.nyl,
            self.output_layout,
        )


class ParallelFFT3D:
    """Per-rank plan for one distributed forward 3-D FFT."""

    def __init__(
        self,
        ctx: SimContext,
        shape: ProblemShape,
        params: TuningParams,
        spec: VariantSpec = NEW,
        include_fixed_steps: bool = True,
        fftz_mode: str = "complex",
        path: SlabDataPath | None = None,
    ) -> None:
        """``fftz_mode``: ``"complex"`` runs the standard FFTz step;
        ``"none"`` assumes the caller already transformed z (used by the
        real-to-complex front end, which replaces FFTz with an r2c
        transform and hands this plan the half-spectrum planes).
        ``path`` is a prebuilt data path for this rank (a distributed
        plan's); by default the plan builds its own."""
        if shape.p != ctx.comm.size:
            raise ParameterError(
                f"shape expects p={shape.p}, communicator has {ctx.comm.size}"
            )
        self.ctx = ctx
        self.comm = ctx.comm
        self.cpu: CpuModel = ctx.cpu
        self.shape = shape
        self.spec = spec
        self.params = spec.effective_params(params, shape)
        if spec.overlap:
            self.params.check_feasible(shape)
        self.include_fixed_steps = include_fixed_steps
        if path is None:
            path = SlabDataPath(shape, self.params, spec, ctx.comm.rank, fftz_mode)
        self.path = path
        self.fftz_mode = path.fftz_mode
        self.dec = path.dec
        self.use_fast_transpose = path.use_fast_transpose
        self.tile_layout = path.tile_layout
        self.output_layout = path.output_layout
        self.tiles = self.dec.tile_ranges(self.params.T)
        #: tracing active for this run? (checked once; per-tile attr
        #: dicts are only built when a repro.obs tracer is installed)
        self._obs = ctx.engine.tracer is not None
        #: tz -> (ffty, pack, unpack, fftx) step seconds; every tile but
        #: the last shares one tz, so the cost model runs twice per plan
        #: instead of four times per tile
        self._phase_cache: dict[int, tuple[float, float, float, float]] = {}
        #: requests posted but not yet waited on (FIFO), replacing the
        #: per-call O(tiles) scan the test-budget split used to do
        self._live: list[AlltoallRequest] = []

    # -- cost helpers ---------------------------------------------------------

    def _tile_bytes(self, tz: int) -> int:
        return tz * self.dec.nxl * self.shape.ny * ITEMSIZE

    def _ffty_time(self, tz: int) -> float:
        return self.cpu.fft_time(self.shape.ny, self.dec.nxl * tz)

    def _pack_time(self, tz: int) -> float:
        if self.spec.tiled_pack:
            return pack_cost(
                self.cpu, self.dec.nxl, self.shape.ny, tz,
                self.params.Px, self.params.Pz,
            )
        return untiled_copy_cost(self.cpu, self._tile_bytes(tz))

    def _unpack_time(self, tz: int) -> float:
        if self.spec.tiled_pack:
            return unpack_cost(
                self.cpu, self.shape.nx, self.dec.nyl, tz,
                self.params.Uy, self.params.Uz,
            )
        return untiled_copy_cost(
            self.cpu, tz * self.dec.nyl * self.shape.nx * ITEMSIZE
        )

    def _fftx_time(self, tz: int) -> float:
        t = self.cpu.fft_time(self.shape.nx, tz * self.dec.nyl)
        if not self.spec.tiled_pack:
            # Untiled Unpack leaves nothing cache-resident, so FFTx
            # re-streams the tile from memory (TH's larger FFTx bar in
            # Figure 8).
            t += self.cpu.copy_time(
                tz * self.dec.nyl * self.shape.nx * ITEMSIZE, resident=False
            )
        return t

    def _phase_times(self, tz: int) -> tuple[float, float, float, float]:
        """Cached (FFTy, Pack, Unpack, FFTx) step times for one tile size."""
        cached = self._phase_cache.get(tz)
        if cached is None:
            cached = (
                self._ffty_time(tz),
                self._pack_time(tz),
                self._unpack_time(tz),
                self._fftx_time(tz),
            )
            self._phase_cache[tz] = cached
        return cached

    # -- execution ---------------------------------------------------------------

    def steps(self, local: np.ndarray | None = None):
        """Run the transform as a coroutine (``yield from`` it in a
        generator SPMD program); returns the local output block (real
        mode) in :attr:`output_layout` order, or ``None`` (virtual
        mode).  Each phase's MPI_Test budget (``Fy/Fp/Fu/Fx``) is spread
        over the in-flight window by :meth:`SimContext.progress_phases`,
        the way Algorithms 2-3 call MPI_Test "on W previous/next tiles F
        times in total"."""
        real = local is not None
        dec, ctx, P = self.dec, self.ctx, self.params
        ny, nz = self.shape.ny, self.shape.nz
        if real and not self.include_fixed_steps:
            raise ParameterError(
                "real payload requires the fixed steps (FFTz/Transpose)"
            )
        data = self.path.fftz_transpose(local) if real else None

        # ---- FFTz + Transpose (parameter-independent; skippable while
        # tuning — Section 4.4, technique 3) --------------------------------
        if self.include_fixed_steps:
            if self.fftz_mode == "complex":
                ctx.compute(self.cpu.fft_time(nz, dec.nxl * ny), "FFTz")
            kind = "xzy" if self.use_fast_transpose else self.spec.transpose_kind
            ctx.compute(
                self.cpu.transpose_time(self._tile_bytes(nz), kind), "Transpose"
            )

        # ---- tiled exchange pipeline (Algorithm 1) ---------------------------
        # One loop serves virtual, real and traced runs.  The numpy work
        # costs no virtual time, so it runs once per rank on the whole
        # slab (FFTy+Pack before the loop, Unpack+FFTx after the last
        # Wait) and the loop only charges the per-tile phases and hands
        # each ialltoall its tile's leading-axis chunk views.  The kernels
        # are bitwise batch-independent and the movers only copy, so the
        # spectrum's bits do not depend on the tiling.
        k = len(self.tiles)
        chunks = self.path.ffty_pack(data) if real else None
        info = self._tile_info(chunks)
        reqs: list[AlltoallRequest | None] = [None] * k
        recv: list[Any] = [None] * k
        live = self._live = []  # posted-but-unwaited window, FIFO
        pps = ctx.progress_phases
        ialltoall = self.comm.ialltoall
        co_wait = self.comm.co_wait
        if self.spec.overlap and P.W > 0:
            w = min(P.W, k)
            for i in range(k + w):
                if i < k:
                    pre, _, send, recvc, payload, a_pre, _ = info[i]
                    pps(pre, live, a_pre)
                if i >= w:
                    recv[i - w] = yield from co_wait(reqs[i - w], label="Wait")
                    live.pop(0)  # waits retire the window head in order
                if i < k:
                    reqs[i] = req = ialltoall(send, recvc, payload)
                    live.append(req)
                if i >= w:
                    _, post, _, _, _, _, a_post = info[i - w]
                    pps(post, live, a_post)
        else:
            for i in range(k):
                pre, post, send, recvc, payload, a_pre, a_post = info[i]
                pps(pre, live, a_pre)
                reqs[i] = req = ialltoall(send, recvc, payload)
                live.append(req)
                recv[i] = yield from co_wait(req, label="Wait")
                live.pop(0)
                pps(post, live, a_post)
        if not real:
            return None
        # each source's tiles joined along z: its whole-slab chunk
        joined = recv[0] if k == 1 else [np.concatenate(parts) for parts in zip(*recv)]
        return self.path.unpack_fftx(joined)

    # -- pipeline stages -----------------------------------------------------

    def _tile_info(self, chunks: list[np.ndarray] | None) -> list[tuple]:
        """Per tile: the fused (FFTy, Pack) and (Unpack, FFTx) phase
        batches, the send and receive count vectors, the chunk views to
        post, and the FFTy/Pack and Unpack/FFTx trace attributes.

        Tiles come in at most two heights (full tiles and a remainder);
        a virtual untraced run shares one entry per height, so its loop
        does no per-tile work beyond indexing this list."""
        P, dec = self.params, self.dec
        by_tz: dict[int, tuple] = {}
        info = []
        for i, (z0, z1) in enumerate(self.tiles):
            tz = z1 - z0
            entry = by_tz.get(tz)
            if entry is None:
                t_ffty, t_pack, t_unpack, t_fftx = self._phase_times(tz)
                entry = by_tz[tz] = (
                    ((t_ffty, P.Fy, "FFTy"), (t_pack, P.Fp, "Pack")),
                    ((t_unpack, P.Fu, "Unpack"), (t_fftx, P.Fx, "FFTx")),
                    dec.sendcounts_bytes(tz),
                    dec.recvcounts_bytes(tz),
                    None, None, None,
                )
            if chunks is not None or self._obs:
                a_pre = a_post = None
                if self._obs:
                    a_pre = {"tile": i, "tz": tz, "bytes": self._tile_bytes(tz)}
                    a_post = {"tile": i, "tz": tz,
                              "bytes": tz * dec.nyl * self.shape.nx * ITEMSIZE}
                views = None if chunks is None else [c[z0:z1] for c in chunks]
                entry = entry[:4] + (views, a_pre, a_post)
            info.append(entry)
        return info
