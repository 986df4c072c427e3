"""Pack/Unpack: real data movement and the closed-form cost model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packing import (
    ffty_pack_real,
    pack_cost,
    subtile_classes,
    unpack_cost,
    unpack_fftx_real,
    untiled_copy_cost,
)
from repro.errors import ParameterError
from repro.machine import UMD_CLUSTER
from repro.util.intmath import iter_blocks

CPU = UMD_CLUSTER.cpu
RNG = np.random.default_rng(3)
IDENT = lambda a: a  # noqa: E731 - identity "FFT" isolates the data movement


class TestSubtileClasses:
    def test_exact_grid(self):
        assert subtile_classes(8, 4, 6, 3) == [(4, 4, 3)]

    def test_edges_and_corner(self):
        classes = dict()
        for count, a, b in subtile_classes(10, 4, 7, 3):
            classes[(a, b)] = count
        assert classes == {(4, 3): 4, (4, 1): 2, (2, 3): 2, (2, 1): 1}

    def test_block_larger_than_extent(self):
        assert subtile_classes(3, 10, 2, 10) == [(1, 3, 2)]

    def test_rejects_zero_blocks(self):
        with pytest.raises(ParameterError):
            subtile_classes(4, 0, 4, 1)

    @given(st.integers(1, 50), st.integers(1, 50), st.integers(1, 50), st.integers(1, 50))
    @settings(max_examples=80)
    def test_counts_cover_area(self, ta, ba, tb, bb):
        total = sum(c * a * b for c, a, b in subtile_classes(ta, ba, tb, bb))
        assert total == ta * tb


class TestCostModel:
    def test_pack_cost_positive(self):
        assert pack_cost(CPU, 16, 256, 16, 8, 2) > 0

    def test_tiny_subtiles_pay_loop_overhead(self):
        # Pathologically small sub-tiles do more iterations, so cost rises.
        good = pack_cost(CPU, 16, 256, 16, 8, 2)
        bad = pack_cost(CPU, 16, 256, 16, 1, 1)
        assert bad > good

    def test_huge_subtiles_pay_memory_bandwidth(self):
        # A sub-tile far beyond cache streams from memory.
        nxl, ny, tz = 64, 1024, 64
        cached = pack_cost(CPU, nxl, ny, tz, 2, 2)
        spilled = pack_cost(CPU, nxl, ny, tz, 64, 64)
        assert spilled > cached

    def test_interior_optimum_exists(self):
        """Section 3.4's trade-off: cost over sub-tile size is U-shaped,
        so some middle size beats both extremes."""
        nxl, ny, tz = 64, 640, 64
        sizes = [1, 2, 4, 8, 16, 32, 64]
        costs = [pack_cost(CPU, nxl, ny, tz, px, 1) for px in sizes]
        best = min(range(len(sizes)), key=costs.__getitem__)
        assert 0 < best < len(sizes) - 1

    def test_unpack_cost_mirrors_pack(self):
        assert unpack_cost(CPU, 256, 16, 16, 8, 2) > 0

    def test_untiled_cost_memory_bound(self):
        nbytes = 1 << 20
        assert untiled_copy_cost(CPU, nbytes) >= CPU.copy_time(nbytes, False)

    def test_cost_scales_with_volume(self):
        c1 = pack_cost(CPU, 16, 256, 8, 8, 2)
        c2 = pack_cost(CPU, 16, 256, 16, 8, 2)
        assert c2 == pytest.approx(2 * c1, rel=0.01)


def reference_chunks(tile_zxy, y_counts):
    """Oracle: slice the (tz, nxl, ny) tile by destination y-slabs."""
    out, y0 = [], 0
    for nyl in y_counts:
        out.append(tile_zxy[:, :, y0 : y0 + nyl].copy())
        y0 += nyl
    return out


class TestPackReal:
    @pytest.mark.parametrize("px,pz", [(1, 1), (2, 3), (4, 4), (100, 100)])
    def test_zxy_layout_all_subtiles(self, px, pz):
        tz, nxl, ny = 5, 4, 9
        tile = RNG.standard_normal((tz, nxl, ny)) + 0j
        y_counts = [4, 3, 2]
        got = ffty_pack_real(tile, IDENT, y_counts, "zxy")
        ref = reference_chunks(tile, y_counts)
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)
        # Packing any px x pz sub-tile alone gives that block of the
        # whole tile's chunks (posting z-range views relies on this).
        for x0, x1 in iter_blocks(nxl, px):
            for z0, z1 in iter_blocks(tz, pz):
                sub = ffty_pack_real(tile[z0:z1, x0:x1], IDENT, y_counts, "zxy")
                for b, g in zip(sub, got, strict=True):
                    assert np.array_equal(b, g[z0:z1, x0:x1])

    def test_xzy_layout(self):
        nxl, tz, ny = 4, 5, 6
        tile = RNG.standard_normal((nxl, tz, ny)) + 0j
        y_counts = [3, 3]
        got = ffty_pack_real(tile, IDENT, y_counts, "xzy")
        ref = reference_chunks(np.ascontiguousarray(tile.transpose(1, 0, 2)), y_counts)
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)

    def test_ffty_applied_before_packing(self):
        tile = RNG.standard_normal((2, 2, 8)) + 0j
        got = ffty_pack_real(tile, lambda a: np.fft.fft(a, axis=-1), [8], "zxy")
        assert np.allclose(got[0], np.fft.fft(tile, axis=-1), atol=1e-10)

    def test_bad_layout_rejected(self):
        with pytest.raises(ParameterError):
            ffty_pack_real(np.zeros((2, 2, 2), complex), IDENT, [2], "abc")

    def test_mismatched_y_counts_rejected(self):
        with pytest.raises(ParameterError):
            ffty_pack_real(np.zeros((2, 2, 4), complex), IDENT, [3], "zxy")


class TestUnpackReal:
    @pytest.mark.parametrize("uy,uz", [(1, 1), (2, 2), (3, 5), (64, 64)])
    @pytest.mark.parametrize("layout", ["zyx", "yzx"])
    def test_reassembles_global_x(self, uy, uz, layout):
        tz, nyl = 4, 5
        x_counts = [3, 2, 4]
        chunks = [
            RNG.standard_normal((tz, nxl_s, nyl)) + 0j for nxl_s in x_counts
        ]
        out = unpack_fftx_real(chunks, IDENT, x_counts, nyl, layout)
        # Oracle: concatenate chunk x-slabs and permute.
        full = np.concatenate(chunks, axis=1)  # (tz, nx, nyl)
        if layout == "zyx":
            ref = full.transpose(0, 2, 1)
        else:
            ref = full.transpose(2, 0, 1)
        assert np.array_equal(out, ref)
        # Unpacking any uy x uz sub-tile alone gives that block of the
        # whole output tile.
        for y0, y1 in iter_blocks(nyl, uy):
            for z0, z1 in iter_blocks(tz, uz):
                sub = unpack_fftx_real([c[z0:z1, :, y0:y1] for c in chunks],
                                       IDENT, x_counts, y1 - y0, layout)
                blk = out[z0:z1, y0:y1] if layout == "zyx" else out[y0:y1, z0:z1]
                assert np.array_equal(sub, blk)

    def test_fftx_applied_after_unpack(self):
        chunks = [RNG.standard_normal((2, 4, 3)) + 0j]
        got = unpack_fftx_real(
            chunks, lambda a: np.fft.fft(a, axis=-1), [4], 3, "zyx"
        )
        ref = np.fft.fft(chunks[0].transpose(0, 2, 1), axis=-1)
        assert np.allclose(got, ref, atol=1e-10)

    def test_bad_layout_rejected(self):
        with pytest.raises(ParameterError):
            unpack_fftx_real(
                [np.zeros((1, 1, 1), complex)], IDENT, [1], 1, "wat"
            )


class TestPackUnpackRoundTrip:
    @given(
        st.integers(1, 4),   # p
        st.integers(1, 6),   # tz
        st.integers(1, 5),   # nxl
        st.integers(2, 10),  # ny >= p
    )
    @settings(max_examples=40, deadline=None)
    def test_pack_then_unpack_is_permutation(self, p, tz, nxl, ny):
        if ny < p:
            return
        from repro.core.decompose import slab_counts

        tile = RNG.standard_normal((tz, nxl, ny)) + 0j
        y_counts = slab_counts(ny, p)
        chunks = ffty_pack_real(tile, IDENT, y_counts, "zxy")
        # Single-source unpack of each destination chunk reproduces the
        # tile slice, transposed.
        y0 = 0
        for d, nyl in enumerate(y_counts):
            out = unpack_fftx_real([chunks[d]], IDENT, [nxl], nyl, "zyx")
            assert np.array_equal(out, tile[:, :, y0 : y0 + nyl].transpose(0, 2, 1))
            y0 += nyl
