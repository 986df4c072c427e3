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
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DecompositionError, ParameterError
from ..fft.plan import Plan1D
from ..simmpi.comm import Communicator, SimContext
from .decompose import slab_counts, slab_range
from .packing import ITEMSIZE


def choose_grid(p: int) -> tuple[int, int]:
    """Most-square ``pr x pc`` factorization of ``p``."""
    best = (1, p)
    for pr in range(1, int(p**0.5) + 1):
        if p % pr == 0:
            best = (pr, p // pr)
    return best


class PencilFFT3D:
    """Per-rank plan for a pencil-decomposed forward 3-D FFT.

    Ranks form a ``pr x pc`` grid in row-major order; rank ``(r, c)``
    initially owns x-slab ``r`` crossed with y-slab ``c`` (z complete).
    The output block is full-x with y re-split over ``pr`` and z split
    over ``pc`` — retrievable globally via :meth:`gather_spectrum`.
    """

    def __init__(
        self,
        ctx: SimContext,
        shape: tuple[int, int, int],
        grid: tuple[int, int] | None = None,
    ) -> None:
        self.ctx = ctx
        self.world = ctx.comm
        self.nx, self.ny, self.nz = shape
        p = self.world.size
        self.pr, self.pc = grid if grid is not None else choose_grid(p)
        if self.pr * self.pc != p:
            raise DecompositionError(
                f"grid {self.pr}x{self.pc} does not match {p} ranks"
            )
        if self.pr > min(self.nx, self.ny) or self.pc > min(self.ny, self.nz):
            raise DecompositionError(
                f"grid {self.pr}x{self.pc} too large for shape {shape}"
            )
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
        self._plans: dict[int, Plan1D] = {}

    def _plan(self, n: int) -> Plan1D:
        if n not in self._plans:
            self._plans[n] = Plan1D(n)
        return self._plans[n]

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

        # ---- FFTz ------------------------------------------------------
        data = None
        if real:
            data = self._plan(self.nz).execute(local, axis=2)
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
            if self.nz % self.pc == 0:
                # Uniform slabs: one whole-block copy instead of pc
                # strided ascontiguousarray calls; each payload entry is
                # a contiguous view into the packed buffer (identical
                # elements, same per-destination shapes).
                nzb = self.nz // self.pc
                packed = np.ascontiguousarray(
                    data.reshape(self.nxl, self.nyl, self.pc, nzb)
                    .transpose(2, 0, 1, 3)
                )
                payload_a = list(packed)
            else:
                payload_a = []
                for d in range(self.pc):
                    z0, z1 = slab_range(self.nz, self.pc, d)
                    payload_a.append(np.ascontiguousarray(data[:, :, z0:z1]))
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
            local1 = self._plan(self.ny).execute(local1, axis=1)
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
            if self.ny % self.pr == 0:
                nyb = self.ny // self.pr
                packed = np.ascontiguousarray(
                    local1.reshape(self.nxl, self.pr, nyb, self.nzl)
                    .transpose(1, 0, 2, 3)
                )
                payload_b = list(packed)
            else:
                payload_b = []
                for d in range(self.pr):
                    y0, y1 = slab_range(self.ny, self.pr, d)
                    payload_b.append(
                        np.ascontiguousarray(local1[:, y0:y1, :])
                    )
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
            local2 = self._plan(self.nx).execute(local2, axis=0)
        ctx.compute(self._fft_cost(self.nx, self.ny2l * self.nzl), "FFTx")
        return local2


def scatter_pencils(
    global_array: np.ndarray, pr: int, pc: int
) -> list[np.ndarray]:
    """Split a global array into per-rank pencil blocks (row-major grid)."""
    arr = np.asarray(global_array)
    out = []
    for r in range(pr):
        x0, x1 = slab_range(arr.shape[0], pr, r)
        for c in range(pc):
            y0, y1 = slab_range(arr.shape[1], pc, c)
            out.append(np.ascontiguousarray(arr[x0:x1, y0:y1, :]))
    return out


def gather_spectrum(
    outputs: list[np.ndarray], shape: tuple[int, int, int], pr: int, pc: int
) -> np.ndarray:
    """Reassemble pencil outputs into ``F[kx, ky, kz]``."""
    nx, ny, nz = shape
    full = np.empty(shape, dtype=np.complex128)
    for r in range(pr):
        y0, y1 = slab_range(ny, pr, r)
        for c in range(pc):
            z0, z1 = slab_range(nz, pc, c)
            full[:, y0:y1, z0:z1] = outputs[r * pc + c]
    return full


def parallel_fft3d_pencil(
    array: np.ndarray,
    p: int,
    platform,
    grid: tuple[int, int] | None = None,
):
    """Convenience wrapper: pencil-decomposed forward FFT of ``array``.

    Returns ``(spectrum, SimResult)``.
    """
    from ..simmpi.spmd import run_spmd

    arr = np.asarray(array, dtype=np.complex128)
    if arr.ndim != 3:
        raise ParameterError(f"expected a 3-D array, got shape {arr.shape}")
    pr, pc = grid if grid is not None else choose_grid(p)
    blocks = scatter_pencils(arr, pr, pc)

    def prog(ctx):
        plan = PencilFFT3D(ctx, arr.shape, (pr, pc))
        return (yield from plan.steps(blocks[ctx.rank]))

    sim = run_spmd(p, prog, platform)
    spectrum = gather_spectrum(sim.results, arr.shape, pr, pc)
    return spectrum, sim
