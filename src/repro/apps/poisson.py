"""Spectral Poisson solver app: r2c forward → k-space scale → c2r inverse.

Differential-equation solving is the FFT use the paper's introduction
leads with; this driver makes it a *traffic* shape — the same periodic
Poisson solve repeated step after step with per-step source amplitudes,
so plan/wisdom reuse across steps is what the harness measures.  The
source and the solution are real, so the solve runs on the
``Nz//2 + 1`` half spectrum, as spectral solvers built on P3DFFT or
mpi4py-fft do.

:func:`solve_poisson` is the shared single-solve helper (the examples'
ad-hoc copies of the k-space division now live here).
"""

from __future__ import annotations

import numpy as np

from ..core.api import RunResult, parallel_irfft3d, parallel_rfft3d
from ..machine.platforms import Platform
from .driver import AppDriver, half_grid


def _divide(s_hat: np.ndarray, box: float) -> np.ndarray:
    """``u_hat = -s_hat / |k|^2`` on the half spectrum of a periodic
    ``box``, with the zero mode removed."""
    nx, ny, nzh = s_hat.shape
    kx, ky, kz = (2.0 * np.pi / box * k
                  for k in half_grid((nx, ny, 2 * (nzh - 1))))
    k2 = kx * kx + ky * ky + kz * kz
    k2[0, 0, 0] = 1.0
    u_hat = -s_hat / k2
    u_hat[0, 0, 0] = 0.0
    return u_hat


def solve_poisson(
    source: np.ndarray,
    p: int,
    platform: Platform,
    params=None,
    variant: str = "NEW",
    box: float = 2.0 * np.pi,
) -> tuple[np.ndarray, tuple[RunResult, RunResult]]:
    """Solve ``laplace(u) = source`` on the simulated cluster.

    The source is real with an even z extent; periodic box of extent
    ``box`` per side; the zero mode is removed (the solution's mean is
    pinned to zero).  Returns ``(u, (fwd, inv))`` with the r2c and c2r
    distributed-transform results for timing.
    """
    s_hat, fwd = parallel_rfft3d(source, p, platform, params, variant)
    u, inv = parallel_irfft3d(_divide(s_hat, box), p, platform, params, variant)
    return u, (fwd, inv)


def serial_poisson(source: np.ndarray, box: float = 2.0 * np.pi) -> np.ndarray:
    """Serial numpy oracle for :func:`solve_poisson`."""
    return np.fft.irfftn(_divide(np.fft.rfftn(source), box))


def manufactured_problem(
    shape: tuple[int, int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """``(f, u_exact)`` for ``-laplace(u) = f`` on ``[0, 2*pi)^3``.

    ``u = sin(x) sin(2y) cos(3z)`` is a Laplacian eigenfunction with
    eigenvalue 14, so the spectral solve is exact to round-off.
    """
    grids = [2.0 * np.pi * np.arange(n) / n for n in shape]
    x = grids[0].reshape(-1, 1, 1)
    y = grids[1].reshape(1, -1, 1)
    z = grids[2].reshape(1, 1, -1)
    u_exact = np.sin(x) * np.sin(2 * y) * np.cos(3 * z)
    return 14.0 * u_exact, u_exact


class PoissonDriver(AppDriver):
    """Repeated spectral Poisson solves with per-step source amplitudes."""

    name = "poisson"
    transforms_per_step = 2
    numerics_tol = 1e-9

    def prepare(self) -> None:
        s = self.config.shape
        self.rhs, self.u_exact = manufactured_problem((s.nx, s.ny, s.nz))
        self.last_scale = 1.0
        self.last_u: np.ndarray | None = None

    def step(self, index: int) -> dict:
        s = self.config.shape
        # Distinct data each step (the solve is linear, so the exact
        # solution just scales with the source).
        self.last_scale = 1.0 + 0.25 * index
        u, (fwd, inv) = solve_poisson(
            -self.last_scale * self.rhs, s.p, self.config.platform,
            self.params, self.variant,
        )
        self.last_u = u
        return {"virtual_s": fwd.elapsed + inv.elapsed}

    def oracle_error(self) -> float:
        assert self.last_u is not None
        ref = serial_poisson(-self.last_scale * self.rhs)
        scale = float(np.abs(ref).max()) or 1.0
        return float(np.abs(self.last_u - ref).max()) / scale

    def analytic_error(self) -> float:
        """Max error vs the manufactured eigenfunction solution."""
        assert self.last_u is not None
        return float(
            np.abs(self.last_u - self.last_scale * self.u_exact).max()
        )
