"""Vectorized pack/unpack movers vs the blocked reference loops.

The vectorized :func:`ffty_pack_real` / :func:`unpack_fftx_real` must be
*element-identical* (bitwise, not approximately equal) to the Algorithm
2/3 sub-tile walks defined below as test-local oracles — the blocking
factors may shape the cost model, but never the data.  The FFT kernels
are exercised through the real :class:`repro.fft.Plan1D` machinery.
They are bitwise batch-independent, so the mover's one ``ffty`` call per
tile must reproduce the walk's one call per ``px`` x ``pz`` sub-tile
exactly, single-row sub-tiles included — which is what these tests pin.
"""

import numpy as np
import pytest

from repro.core.packing import ffty_pack_real, unpack_fftx_real
from repro.fft import FORWARD, Flag, WisdomStore
from repro.fft.plan import Plan1D, _candidates
from repro.util.intmath import iter_blocks


def ffty_pack_real_subtiled(tile, ffty, y_counts, px, pz, layout):
    """Algorithm 2's sub-tile walk: FFTy on each ``px`` x ``pz`` block,
    then scatter the block into every destination's chunk."""
    if layout == "zxy":
        tz, nxl, _ = tile.shape
    else:
        nxl, tz, _ = tile.shape
    chunks = [np.empty((tz, nxl, nyl_d), dtype=np.complex128) for nyl_d in y_counts]
    y_starts = np.concatenate([[0], np.cumsum(y_counts)])
    for x0, x1 in iter_blocks(nxl, px):
        for z0, z1 in iter_blocks(tz, pz):
            if layout == "zxy":
                block = ffty(tile[z0:z1, x0:x1, :])
            else:
                # x-z-y tile: bring the block to (z, x, y) chunk order.
                block = ffty(tile[x0:x1, z0:z1, :]).transpose(1, 0, 2)
            for d, nyl_d in enumerate(y_counts):
                ys = y_starts[d]
                chunks[d][z0:z1, x0:x1, :] = block[:, :, ys : ys + nyl_d]
    return chunks


def unpack_fftx_real_subtiled(chunks, fftx, x_counts, nyl, uy, uz, layout):
    """Algorithm 3's sub-tile walk: gather each ``uy`` x ``uz`` block from
    every source into the output tile, then FFTx."""
    nx = sum(x_counts)
    tz = chunks[0].shape[0]
    if layout == "zyx":
        out = np.empty((tz, nyl, nx), dtype=np.complex128)
    else:
        out = np.empty((nyl, tz, nx), dtype=np.complex128)
    x_starts = np.concatenate([[0], np.cumsum(x_counts)])
    for y0, y1 in iter_blocks(nyl, uy):
        for z0, z1 in iter_blocks(tz, uz):
            for s, nxl_s in enumerate(x_counts):
                xs = x_starts[s]
                # chunk block (z, x, y) -> output order.
                blk = chunks[s][z0:z1, :, y0:y1]
                if layout == "zyx":
                    out[z0:z1, y0:y1, xs : xs + nxl_s] = blk.transpose(0, 2, 1)
                else:
                    out[y0:y1, z0:z1, xs : xs + nxl_s] = blk.transpose(2, 0, 1)
    return fftx(out)


RNG = np.random.default_rng(11)


def _tile(shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def _ffty(ny):
    plan = Plan1D(ny)
    return lambda a: plan.execute(a, axis=-1)


@pytest.mark.parametrize("px,pz", [(1, 1), (2, 3), (3, 2), (100, 100)])
@pytest.mark.parametrize("layout", ["zxy", "xzy"])
def test_pack_identical_to_subtiled(px, pz, layout):
    tz, nxl, ny = 5, 4, 12
    shape = (tz, nxl, ny) if layout == "zxy" else (nxl, tz, ny)
    tile = _tile(shape)
    y_counts = [5, 4, 3]
    ffty = _ffty(ny)
    got = ffty_pack_real(tile, ffty, y_counts, layout)
    ref = ffty_pack_real_subtiled(tile, ffty, y_counts, px, pz, layout)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        assert np.array_equal(g, r)  # bitwise, no tolerance


@pytest.mark.parametrize("n", [8, 12, 13, 30])  # power of two, composite, prime, composite
def test_pack_identical_across_kernel_types(n):
    # Every kernel the planner may pick (dense, two-factor, Bluestein)
    # must come out bitwise equal: the walk feeds the kernel single
    # rows, the mover the whole tile, and the kernels are
    # batch-independent.
    tile = _tile((3, 2, n))
    for name in _candidates(n):
        wisdom = WisdomStore()
        wisdom.record(n, FORWARD, "estimate", name)
        plan = Plan1D(n, flag=Flag.ESTIMATE, wisdom=wisdom)
        assert plan.kernel_name == name
        ffty = lambda a: plan.execute(a, axis=-1)  # noqa: E731
        got = ffty_pack_real(tile, ffty, [n], "zxy")
        ref = ffty_pack_real_subtiled(tile, ffty, [n], 1, 1, "zxy")
        assert np.array_equal(got[0], ref[0]), name


@pytest.mark.parametrize("uy,uz", [(1, 1), (2, 2), (3, 5), (64, 64)])
@pytest.mark.parametrize("layout", ["zyx", "yzx"])
def test_unpack_identical_to_subtiled(uy, uz, layout):
    tz, nyl = 4, 5
    x_counts = [3, 2, 4]
    nx = sum(x_counts)
    chunks = [_tile((tz, nxl_s, nyl)) for nxl_s in x_counts]
    plan = Plan1D(nx)
    fftx = lambda a: plan.execute(a, axis=-1)  # noqa: E731
    got = unpack_fftx_real(chunks, fftx, x_counts, nyl, layout)
    ref = unpack_fftx_real_subtiled(chunks, fftx, x_counts, nyl, uy, uz, layout)
    assert np.array_equal(got, ref)  # bitwise, no tolerance


def test_pack_remainder_subtiles():
    # Extents that px/pz do not divide: the reference walks edge and
    # corner sub-tiles; results must still match bitwise.
    tz, nxl, ny = 7, 5, 10
    tile = _tile((tz, nxl, ny))
    ffty = _ffty(ny)
    got = ffty_pack_real(tile, ffty, [7, 3], "zxy")
    ref = ffty_pack_real_subtiled(tile, ffty, [7, 3], 3, 4, "zxy")
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)
