"""3-D convolution app: periodic Gaussian smoothing via the FFT.

Convolution is the classic "two transforms per product" FFT workload:
the kernel spectrum is computed once at prepare time and every step pays
one forward and one inverse distributed transform around a pointwise
spectral product — exactly the traffic shape where a cached plan earns
its keep.  Field and kernel are real, so the transforms are the r2c /
c2r pair and the product runs on half spectra.
"""

from __future__ import annotations

import numpy as np

from ..core.api import parallel_irfft3d, parallel_rfft3d
from .driver import AppDriver


def gaussian_kernel(shape: tuple[int, int, int], sigma: float) -> np.ndarray:
    """Periodic, unit-mass Gaussian on the grid (real space)."""
    axes = []
    for n in shape:
        d = np.minimum(np.arange(n), n - np.arange(n)).astype(float)
        axes.append(d * d)
    d2 = (
        axes[0].reshape(-1, 1, 1)
        + axes[1].reshape(1, -1, 1)
        + axes[2].reshape(1, 1, -1)
    )
    g = np.exp(-d2 / (2.0 * sigma * sigma))
    return g / g.sum()


class ConvolutionDriver(AppDriver):
    """Repeated Gaussian convolutions of a drifting input field."""

    name = "convolution"
    transforms_per_step = 2
    numerics_tol = 1e-8
    sigma = 1.5

    def prepare(self) -> None:
        s = self.config.shape
        rng = np.random.default_rng(self.config.seed)
        self.base = rng.standard_normal((s.nx, s.ny, s.nz))
        self.kernel = gaussian_kernel((s.nx, s.ny, s.nz), self.sigma)
        # One setup transform; the per-step loop reuses its spectrum.
        self.kernel_hat, _ = parallel_rfft3d(
            self.kernel, s.p, self.config.platform, self.params, self.variant,
        )
        self.last_in: np.ndarray | None = None
        self.last_out: np.ndarray | None = None

    def step(self, index: int) -> dict:
        s = self.config.shape
        x = np.roll(self.base, index, axis=0)
        x_hat, fwd = parallel_rfft3d(
            x, s.p, self.config.platform, self.params, self.variant,
        )
        y, inv = parallel_irfft3d(
            x_hat * self.kernel_hat, s.p, self.config.platform,
            self.params, self.variant,
        )
        self.last_in, self.last_out = x, y
        return {"virtual_s": fwd.elapsed + inv.elapsed}

    def oracle_error(self) -> float:
        assert self.last_in is not None and self.last_out is not None
        ref = np.fft.irfftn(
            np.fft.rfftn(self.last_in) * np.fft.rfftn(self.kernel)
        )
        scale = float(np.abs(ref).max()) or 1.0
        return float(np.abs(self.last_out - ref).max()) / scale
