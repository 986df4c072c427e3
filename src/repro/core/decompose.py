"""1-D (slab) domain decomposition (Section 2.2 of the paper).

The input array is divided along x before the exchange and along y after
it.  Division handles the general, non-divisible case (the paper's code
does too, §2.3): the first ``N mod p`` ranks get one extra plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DecompositionError


def slab_counts(n: int, p: int) -> list[int]:
    """Extent of each rank's slab when ``n`` planes split over ``p`` ranks."""
    if p < 1 or n < p:
        raise DecompositionError(f"cannot split {n} planes over {p} ranks")
    base, extra = divmod(n, p)
    return [base + (1 if r < extra else 0) for r in range(p)]


def slab_starts(n: int, p: int) -> list[int]:
    """Global index of the first plane of each rank's slab."""
    counts = slab_counts(n, p)
    starts = [0] * p
    for r in range(1, p):
        starts[r] = starts[r - 1] + counts[r - 1]
    return starts


def slab_range(n: int, p: int, rank: int) -> tuple[int, int]:
    """``(start, stop)`` global plane range owned by ``rank``."""
    counts = slab_counts(n, p)
    start = sum(counts[:rank])
    return start, start + counts[rank]


@dataclass
class Decomposition:
    """Per-rank view of the 1-D decomposition of an ``(nx, ny, nz)`` array.

    Slab tables are computed once at construction: pipeline cost helpers
    consult them on every tile, so they must be O(1) reads.
    """

    nx: int
    ny: int
    nz: int
    p: int
    rank: int

    def __post_init__(self) -> None:
        self.x_counts: list[int] = slab_counts(self.nx, self.p)
        self.y_counts: list[int] = slab_counts(self.ny, self.p)
        #: local x extent before the exchange
        self.nxl: int = self.x_counts[self.rank]
        #: local y extent after the exchange
        self.nyl: int = self.y_counts[self.rank]
        self.x_range: tuple[int, int] = slab_range(self.nx, self.p, self.rank)
        self.y_range: tuple[int, int] = slab_range(self.ny, self.p, self.rank)
        self._send_cache: dict[tuple[int, int], np.ndarray] = {}
        self._recv_cache: dict[tuple[int, int], np.ndarray] = {}

    def tile_ranges(self, tile_size: int) -> list[tuple[int, int]]:
        """Communication-tile z ranges (Algorithm 1, line 3)."""
        if tile_size < 1:
            raise DecompositionError(f"tile size must be >= 1, got {tile_size}")
        return [
            (z0, min(z0 + tile_size, self.nz))
            for z0 in range(0, self.nz, tile_size)
        ]

    def sendcounts_bytes(self, tz: int, itemsize: int = 16) -> np.ndarray:
        """Bytes this rank sends to each peer for a tile of thickness ``tz``:
        its own x-slab crossed with each destination's y-slab.  Memoized —
        a pipeline asks for the same one or two thicknesses per tile."""
        key = (tz, itemsize)
        cached = self._send_cache.get(key)
        if cached is None:
            cached = np.array(
                [tz * self.nxl * nyl_d * itemsize for nyl_d in self.y_counts],
                dtype=np.int64,
            )
            self._send_cache[key] = cached
        return cached

    def recvcounts_bytes(self, tz: int, itemsize: int = 16) -> np.ndarray:
        """Bytes this rank receives from each peer for one tile (memoized)."""
        key = (tz, itemsize)
        cached = self._recv_cache.get(key)
        if cached is None:
            cached = np.array(
                [tz * nxl_s * self.nyl * itemsize for nxl_s in self.x_counts],
                dtype=np.int64,
            )
            self._recv_cache[key] = cached
        return cached


def scatter_slabs(
    global_array: np.ndarray, pr: int, pc: int = 1
) -> list[np.ndarray]:
    """Split a global ``(Nx, Ny, Nz)`` array into per-rank blocks over a
    row-major ``pr x pc`` grid: rank ``r*pc + c`` gets x-slab ``r`` of
    ``pr`` crossed with y-slab ``c`` of ``pc``.  A slab decomposition
    is the grid ``(p, 1)``: whole x-slabs."""
    arr = np.asarray(global_array)
    if arr.ndim != 3:
        raise DecompositionError(f"expected a 3-D array, got shape {arr.shape}")
    out = []
    for r in range(pr):
        x0, x1 = slab_range(arr.shape[0], pr, r)
        for c in range(pc):
            y0, y1 = slab_range(arr.shape[1], pc, c)
            out.append(np.ascontiguousarray(arr[x0:x1, y0:y1]))
    return out


def gather_spectrum(
    outputs: list[np.ndarray], shape: tuple[int, int, int], layout: str,
    pc: int = 1,
) -> np.ndarray:
    """Reassemble per-rank pipeline outputs into the full spectrum
    ``F[kx, ky, kz]`` (comparable with ``numpy.fft.fftn``), or the full
    real array of a c2r inverse, of the outputs' dtype.

    ``layout`` is the pipeline's output layout: ``"zyx"`` for the general
    path, ``"yzx"`` for the Nx==Ny fast-transpose path (Section 3.5),
    ``"xyz"`` for the c2r inverse's y-slabs and a pencil grid's blocks.
    Over a row-major ``pr x pc`` grid (``pr = len(outputs) // pc``)
    rank ``r*pc + c`` holds y-slab ``r`` of ``pr`` crossed with z-slab
    ``c`` of ``pc``; a slab pipeline's is the ``pc = 1`` case.
    """
    nx, ny, nz = shape
    pr = len(outputs) // pc
    full = np.empty(shape, dtype=outputs[0].dtype)
    for rank, out in enumerate(outputs):
        r, c = divmod(rank, pc)
        y0, y1 = slab_range(ny, pr, r)
        z0, z1 = slab_range(nz, pc, c)
        if layout == "xyz":
            full[:, y0:y1, z0:z1] = out
        elif layout == "zyx":
            # out[z, y_local, x] -> full[x, y, z]
            full[:, y0:y1, z0:z1] = out.transpose(2, 1, 0)
        elif layout == "yzx":
            # out[y_local, z, x] -> full[x, y, z]
            full[:, y0:y1, z0:z1] = out.transpose(2, 0, 1)
        else:
            raise DecompositionError(f"unknown output layout {layout!r}")
    return full
