"""2-D (pencil) domain decomposition — the paper's future-work extension.

Section 7: "we intend to apply our overlap method to the 2-D domain
decomposition technique.  If successful, we could achieve high
scalability with many computing cores..."  This module provides that
substrate: a pencil-decomposed parallel 3-D FFT over a ``pr x pc``
process grid, built on the same simulated MPI and machine models.
Unlike the 1-D method it needs *two* all-to-all stages (Section 2.2's
trade-off), but scales to ``N^2`` ranks instead of ``N``.

The exchange stages run either blocking or with the window/progression
overlap machinery applied to the second (x-gathering) exchange, tiled
along z — a direct transplant of the 1-D method's Algorithm 1.

Like :class:`~repro.core.plan.ParallelFFT3D`, the pipeline is written in
the ``co_*`` coroutine spelling (:meth:`PencilFFT3D.steps`), which a
generator SPMD program runs with ``yield from``.  The row and column
sub-communicators are a pure function of the process grid, so the plan
builds them directly when it is constructed (as P3DFFT and mpi4py-fft
do) and charges the modeled time of the two ``MPI_Comm_split`` calls
that would create them on a real machine.

Real-payload transforms run on a grid plan
(:func:`~repro.core.distplan.fft3d_plan` with ``grid``); virtual runs
build :class:`PencilFFT3D` directly.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DecompositionError, ParameterError
from ..fft.plan import Plan1D
from ..simmpi.comm import Communicator, SimContext
from .decompose import slab_counts
from .packing import ITEMSIZE
from .params import ProblemShape


def choose_grid(p: int) -> tuple[int, int]:
    """Most-square ``pr x pc`` factorization of ``p``."""
    best = (1, p)
    for pr in range(1, int(p**0.5) + 1):
        if p % pr == 0:
            best = (pr, p // pr)
    return best


class GridShape(ProblemShape):
    """The problem of a grid plan.  Its ``p`` ranks on a ``pr x pc``
    grid may outnumber the planes of an axis (16 ranks on 8^3 over
    4 x 4), which :class:`ProblemShape` rejects as the slab
    decomposition's limit; :func:`check_grid` checks the grid's fit."""

    slab_limited = False


def check_grid(shape: tuple[int, int, int], p: int,
               grid: tuple[int, int]) -> None:
    """Raise :class:`DecompositionError` unless the ``pr x pc`` grid has
    ``p`` ranks and fits ``shape`` (``pr <= Nx, Ny``; ``pc <= Ny, Nz``)."""
    nx, ny, nz = shape
    pr, pc = grid
    if pr * pc != p:
        raise DecompositionError(f"grid {pr}x{pc} does not match {p} ranks")
    if pr > min(nx, ny) or pc > min(ny, nz):
        raise DecompositionError(f"grid {pr}x{pc} too large for shape {shape}")


class PencilFFT3D:
    """Per-rank plan for a pencil-decomposed forward 3-D FFT.

    Ranks form a ``pr x pc`` grid in row-major order; rank ``(r, c)``
    initially owns x-slab ``r`` crossed with y-slab ``c`` (z complete).
    The output block is full-x with y re-split over ``pr`` and z split
    over ``pc``, in ``"xyz"`` layout —
    :func:`~repro.core.decompose.gather_spectrum` with ``pc`` reassembles
    it.  ``plans`` maps ``"z"``, ``"y"`` and ``"x"`` to their c2c
    :class:`Plan1D`; a grid plan passes one dict to all its ranks, as it
    does to :class:`~repro.core.plan.SlabDataPath`.  A payload run given
    none builds its own.
    """

    def __init__(
        self,
        ctx: SimContext,
        shape: tuple[int, int, int],
        grid: tuple[int, int] | None = None,
        plans: dict[str, Plan1D] | None = None,
    ) -> None:
        self.ctx = ctx
        self.world = ctx.comm
        self.nx, self.ny, self.nz = shape
        p = self.world.size
        self.pr, self.pc = grid if grid is not None else choose_grid(p)
        check_grid(shape, p, (self.pr, self.pc))
        self.r, self.c = divmod(self.world.rank, self.pc)
        # Row communicator: same r, ranks across c (first exchange).
        # Column communicator: same c, ranks across r (second exchange).
        # Their ids are distinct from each other and from the world's 0.
        grid_id = (self.pr, self.pc)
        self.row_comm = Communicator(
            ctx, [self.r * self.pc + c for c in range(self.pc)],
            (*grid_id, "row", self.r),
        )
        self.col_comm = Communicator(
            ctx, [r * self.pc + self.c for r in range(self.pr)],
            (*grid_id, "col", self.c),
        )
        self._charge_splits()
        # Slab tables for the three distribution stages.
        self.x_counts = slab_counts(self.nx, self.pr)
        self.y_counts = slab_counts(self.ny, self.pc)
        self.z_counts = slab_counts(self.nz, self.pc)
        self.y2_counts = slab_counts(self.ny, self.pr)
        self.nxl = self.x_counts[self.r]
        self.nyl = self.y_counts[self.c]
        self.nzl = self.z_counts[self.c]
        self.ny2l = self.y2_counts[self.r]
        self.plans = {} if plans is None else plans

    # -- cost helpers ---------------------------------------------------------

    def _fft_cost(self, n: int, batch: int) -> float:
        return self.ctx.cpu.fft_time(n, batch)

    def _copy_cost(self, elems: int) -> float:
        return self.ctx.cpu.copy_time(elems * ITEMSIZE, resident=False)

    # -- execution ----------------------------------------------------------

    def _charge_splits(self) -> None:
        """Charge the modeled time of the two communicator splits.

        Each ``MPI_Comm_split`` is an allgather of (color, key) followed
        by an allreduce agreeing on a context id, each a tree of
        ``ceil(log2 p)`` latency-bound steps over the world's ``p``
        ranks.  Every rank enters them at the same clock, so each
        completes at its own clock plus that time; it is accounted as a
        blocked interval (no straggler stretch), under the collective's
        label.
        """
        rank = self.ctx.engine.ranks[self.ctx.rank]
        depth = max(1, math.ceil(math.log2(max(self.world.size, 2))))
        seconds = depth * self.ctx.platform.net.latency
        for label in ("Allgather", "Allreduce", "Allgather", "Allreduce"):
            t0 = rank.clock
            t1 = t0 + seconds
            rank.trace.add(t0, t1, label)
            rank.clock = t1

    def steps(self, local: np.ndarray | None = None):
        """Run the transform as a ``co_*`` coroutine (``yield from`` it
        in a generator SPMD program).  ``local`` is the rank's
        ``(nxl, nyl, nz)`` block (real mode) or ``None`` (virtual)."""
        real = local is not None
        if real and tuple(local.shape) != (self.nxl, self.nyl, self.nz):
            raise ParameterError(
                f"expected local block {(self.nxl, self.nyl, self.nz)}, "
                f"got {tuple(local.shape)}"
            )
        ctx = self.ctx
        plans = self.plans
        if real and not plans:
            plans.update(z=Plan1D(self.nz), y=Plan1D(self.ny), x=Plan1D(self.nx))

        # ---- FFTz ------------------------------------------------------
        data = None
        if real:
            data = plans["z"].execute(local, axis=2)
        ctx.compute(self._fft_cost(self.nz, self.nxl * self.nyl), "FFTz")

        # ---- exchange A (row comm): make y complete, split z -------------
        send_a = [
            self.nxl * self.nyl * nz_d * ITEMSIZE for nz_d in self.z_counts
        ]
        recv_a = [
            self.nxl * nyl_s * self.nzl * ITEMSIZE for nyl_s in self.y_counts
        ]
        payload_a = None
        if real:
            # one contiguous buffer per destination's z-slab (the first
            # nz mod pc one plane longer, as slab_counts splits)
            payload_a = [np.ascontiguousarray(b)
                         for b in np.array_split(data, self.pc, axis=2)]
        ctx.compute(self._copy_cost(self.nxl * self.nyl * self.nz), "Pack")
        chunks_a = yield from self.row_comm.co_alltoall(
            send_a, recv_a, payload=payload_a
        )
        local1 = None
        if real:
            # Sources arrive in y order, so assembly is one concatenate.
            local1 = np.concatenate(chunks_a, axis=1)
        ctx.compute(self._copy_cost(self.nxl * self.ny * self.nzl), "Unpack")

        # ---- FFTy -----------------------------------------------------------
        if real:
            local1 = plans["y"].execute(local1, axis=1)
        ctx.compute(self._fft_cost(self.ny, self.nxl * self.nzl), "FFTy")

        # ---- exchange B (col comm): make x complete, re-split y -----------
        send_b = [
            self.nxl * ny2_d * self.nzl * ITEMSIZE for ny2_d in self.y2_counts
        ]
        recv_b = [
            nxl_s * self.ny2l * self.nzl * ITEMSIZE for nxl_s in self.x_counts
        ]
        payload_b = None
        if real:
            payload_b = [np.ascontiguousarray(b)
                         for b in np.array_split(local1, self.pr, axis=1)]
        ctx.compute(self._copy_cost(self.nxl * self.ny * self.nzl), "Pack")
        chunks_b = yield from self.col_comm.co_alltoall(
            send_b, recv_b, payload=payload_b
        )
        local2 = None
        if real:
            # Sources arrive in x order: assembly is one concatenate.
            local2 = np.concatenate(chunks_b, axis=0)
        ctx.compute(self._copy_cost(self.nx * self.ny2l * self.nzl), "Unpack")

        # ---- FFTx --------------------------------------------------------
        if real:
            local2 = plans["x"].execute(local2, axis=0)
        ctx.compute(self._fft_cost(self.nx, self.ny2l * self.nzl), "FFTx")
        return local2
