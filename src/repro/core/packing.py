"""Pack/Unpack with loop tiling (Section 3.4, Algorithms 2-3).

Each communication tile is processed in *sub-tiles*: FFTy runs on a
``Px x Ny x Pz`` block and Pack immediately scatters that block into the
per-destination send chunks while it is still cache-resident; Unpack
writes a ``Nx x Uy x Uz`` block into the output layout and FFTx consumes
it likewise.  Two things live here:

* the *real* data movement (numpy) used in real-payload mode, which
  works on whole blocks — :class:`~repro.core.plan.SlabDataPath` calls
  each mover once per rank and array on the whole slab, for the slab,
  r2c and multi-array pipelines alike: the FFT kernels are bitwise
  batch-independent, so blocking could reorder the work but never
  change the data, and
* closed-form cost functions charging the machine model — grouped by
  sub-tile size class so simulator cost is O(1) per tile, not O(#sub-
  tiles), which keeps huge parameter sweeps cheap.

Chunk wire format: the message from rank s to rank d for one tile is a
``(tz, nxl_s, nyl_d)`` complex array in z-x-y order, independent of the
transpose variant in use — both ends agree by construction.  Because z
leads, a tile's message is a contiguous ``[z0:z1]`` view of a whole-slab
chunk, and a source's tiles concatenate along z into a whole-slab one.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..machine.cpu import CpuModel

ITEMSIZE = 16  # complex128


def subtile_classes(
    total_a: int, block_a: int, total_b: int, block_b: int
) -> list[tuple[int, int, int]]:
    """Group the 2-D sub-tile grid by size: ``(count, a_extent, b_extent)``.

    A ``total_a x total_b`` region cut into ``block_a x block_b`` blocks
    yields at most four distinct block shapes (interior, two edges, one
    corner); costs are per-class so the model never loops over blocks.
    """
    if block_a < 1 or block_b < 1:
        raise ParameterError(f"sub-tile extents must be >= 1, got {block_a}x{block_b}")
    fa, ra = divmod(total_a, block_a)
    fb, rb = divmod(total_b, block_b)
    classes = []
    if fa and fb:
        classes.append((fa * fb, block_a, block_b))
    if fa and rb:
        classes.append((fa, block_a, rb))
    if ra and fb:
        classes.append((fb, ra, block_b))
    if ra and rb:
        classes.append((1, ra, rb))
    return classes


# --------------------------------------------------------------------------
# cost model
# --------------------------------------------------------------------------


def pack_cost(
    cpu: CpuModel, nxl: int, ny: int, tz: int, px: int, pz: int
) -> float:
    """Seconds for the Pack half of Algorithm 2 on one tile.

    Working set per sub-tile is ``px * ny * pz`` elements (the block FFTy
    just produced); residency against the private cache decides the copy
    bandwidth, and every sub-tile pays the fixed loop overhead.
    """
    total = 0.0
    for count, bx, bz in subtile_classes(nxl, px, tz, pz):
        ws = bx * ny * bz * ITEMSIZE
        total += count * cpu.pack_subtile_time(ws)
    return total


def unpack_cost(
    cpu: CpuModel, nx: int, nyl: int, tz: int, uy: int, uz: int
) -> float:
    """Seconds for the Unpack half of Algorithm 3 on one tile
    (sub-tiles span the full x extent: ``nx * uy * uz`` elements)."""
    total = 0.0
    for count, by, bz in subtile_classes(nyl, uy, tz, uz):
        ws = nx * by * bz * ITEMSIZE
        total += count * cpu.pack_subtile_time(ws)
    return total


def untiled_copy_cost(cpu: CpuModel, nbytes: int) -> float:
    """Whole-tile copy with no tiling (the TH baseline): always
    memory-bound, single loop iteration."""
    return cpu.copy_time(nbytes, resident=False) + cpu.loop_overhead


# ----------------------------------------------------------------------------
# real data movement
# ----------------------------------------------------------------------------


def ffty_pack_real(
    tile: np.ndarray,
    ffty,
    y_counts: list[int],
    layout: str,
) -> list[np.ndarray]:
    """FFTy + Pack one tile (Algorithm 2), returning per-dest chunks.

    ``tile`` is the communication tile in the post-Transpose layout:
    ``(tz, nxl, ny)`` for ``"zxy"`` or ``(nxl, tz, ny)`` for ``"xzy"``;
    the slab pipeline passes its whole slab (``tz = Nz``) and posts
    z-ranges of the chunks.  ``ffty`` is a callable transforming the
    last axis.

    The ``Px`` x ``Pz`` sub-tile walk is a cost-model concern
    (:func:`pack_cost`).  The FFT kernels are bitwise batch-independent,
    so the mover transforms the whole tile with one ``ffty`` call and
    carves each destination's chunk out with one strided copy; the
    result is element-identical to the sub-tile walk (pinned by
    tests/core/test_packing_vector.py).
    """
    if layout not in ("zxy", "xzy"):
        raise ParameterError(f"unknown tile layout {layout!r}")
    if sum(y_counts) != tile.shape[-1]:
        raise ParameterError("y_counts must sum to the tile's y extent")
    zxy = ffty(tile)
    if layout == "xzy":
        zxy = zxy.transpose(1, 0, 2)  # x-z-y tile: bring it to chunk order
    tz, nxl, _ = zxy.shape
    chunks = []
    ys = 0
    for nyl_d in y_counts:
        chunk = np.empty((tz, nxl, nyl_d), dtype=np.complex128)
        chunk[...] = zxy[:, :, ys : ys + nyl_d]
        chunks.append(chunk)
        ys += nyl_d
    return chunks


def unpack_fftx_real(
    chunks: list[np.ndarray],
    fftx,
    x_counts: list[int],
    nyl: int,
    layout: str,
) -> np.ndarray:
    """Unpack + FFTx one tile (Algorithm 3), returning the output tile.

    ``chunks[s]`` is the ``(tz, nxl_s, nyl)`` message from source ``s``
    (the slab pipeline passes each source's tiles joined along z, so
    ``tz = Nz`` and the output tile is the whole output block).
    The output tile is ``(tz, nyl, nx)`` in z-y-x order for ``"zyx"`` or
    ``(nyl, tz, nx)`` in y-z-x order for ``"yzx"`` (the Nx==Ny variant);
    either way x is contiguous for FFTx.

    As with :func:`ffty_pack_real`, the ``Uy`` x ``Uz`` sub-tile walk is
    a cost-model concern (:func:`unpack_cost`); the mover assembles each
    source's x-slice with one whole-tile strided copy instead (same
    elements, pinned by tests/core/test_packing_vector.py).
    """
    nx = sum(x_counts)
    tz = chunks[0].shape[0]
    if layout == "zyx":
        out = np.empty((tz, nyl, nx), dtype=np.complex128)
    elif layout == "yzx":
        out = np.empty((nyl, tz, nx), dtype=np.complex128)
    else:
        raise ParameterError(f"unknown output layout {layout!r}")
    xs = 0
    for s, nxl_s in enumerate(x_counts):
        # chunk (z, x, y) -> output order, one strided copy per source.
        blk = chunks[s]
        if layout == "zyx":
            out[:, :, xs : xs + nxl_s] = blk.transpose(0, 2, 1)
        else:
            out[:, :, xs : xs + nxl_s] = blk.transpose(2, 0, 1)
        xs += nxl_s
    return fftx(out)
