"""Turbulence-style pseudo-spectral time-stepper.

The headline traffic shape from the paper's motivating applications
(petascale flow simulation, ref [25]; mpi4py-fft's Navier-Stokes demos):
a state kept in spectral space, advanced N steps, each step paying an
inverse transform to real space, a pointwise nonlinear term, and a
forward transform back — plus dealiasing and an integrating-factor
viscous decay.  The nonlinear term here is a *placeholder* (the scalar
Burgers flux ``u^2/2``), enough to exercise the real data path without
claiming fluid dynamics.

Also home to the synthetic-spectrum helpers the turbulence example used
to carry: :func:`synth_velocity` and :func:`shell_spectrum`.
"""

from __future__ import annotations

import numpy as np

from ..core.api import parallel_irfft3d, parallel_rfft3d
from .driver import AppDriver, half_grid


def synth_velocity(seed: int, n: int) -> np.ndarray:
    """Random field with amplitude ~ k^(-(5/3+2)/2) so E(k) ~ k^-5/3."""
    rng = np.random.default_rng(seed)
    k = np.fft.fftfreq(n, d=1.0 / n)
    kx, ky, kz = np.meshgrid(k, k, k, indexing="ij")
    kk = np.sqrt(kx**2 + ky**2 + kz**2)
    kk[0, 0, 0] = 1.0
    amp = kk ** (-(5.0 / 3.0 + 2.0) / 2.0)
    amp[0, 0, 0] = 0.0
    amp[kk > n // 3] = 0.0  # dealias the high shell
    phase = np.exp(2j * np.pi * rng.random((n, n, n)))
    spec = amp * phase
    # Hermitian-symmetrize so the field is real.
    u = np.fft.ifftn(spec).real
    return u / np.abs(u).max()


def shell_spectrum(half_spec: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bin |u_hat|^2 into integer-|k| shells from an rfft half spectrum."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    kzh = np.arange(n // 2 + 1)
    kx, ky, kz = np.meshgrid(k, k, kzh, indexing="ij")
    kk = np.sqrt(kx**2 + ky**2 + kz**2)
    # rfft keeps only half of z: double interior-plane energy.
    weight = np.full(half_spec.shape, 2.0)
    weight[:, :, 0] = 1.0
    if n % 2 == 0:
        weight[:, :, -1] = 1.0
    energy = weight * np.abs(half_spec) ** 2
    shells = np.arange(1, n // 3)
    e_k = np.array(
        [energy[(kk >= s - 0.5) & (kk < s + 0.5)].sum() for s in shells]
    )
    return shells, e_k


def smooth_field(shape: tuple[int, int, int], seed: int) -> np.ndarray:
    """Low-pass-filtered random real field (even Nz)."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(shape)
    spec = np.fft.rfftn(raw)
    # cycles/sample: the half grid over each extent
    fx, fy, fz = (k / n for k, n in zip(half_grid(shape), shape))
    f2 = fx * fx + fy * fy + fz * fz
    spec *= np.exp(-((f2 / 0.02) ** 2))
    u = np.fft.irfftn(spec)
    return u / np.abs(u).max()


class TurbulenceDriver(AppDriver):
    """N pseudo-spectral Euler steps of a scalar Burgers-type equation.

    State lives in spectral space as the half spectrum of the real
    field; each step is one c2r inverse + one r2c forward distributed
    transform around the placeholder nonlinearity, with 2/3-rule
    dealiasing and an exact integrating factor for the viscous term.
    The oracle replays the identical evolution with
    ``numpy.fft.irfftn``/``rfftn`` from the same initial state.
    """

    name = "turbulence"
    transforms_per_step = 2
    numerics_tol = 1e-8
    dt = 1e-3
    nu = 1e-2

    def prepare(self) -> None:
        s = self.config.shape
        shape3 = (s.nx, s.ny, s.nz)
        u0 = smooth_field(shape3, self.config.seed)
        self.u_hat0 = np.fft.rfftn(u0)
        self.u_hat = self.u_hat0.copy()
        kx, ky, kz = self.wavenumbers()
        k2 = self.ksq()
        self.visc = np.exp(-self.nu * k2 * self.dt)
        dealias = (
            (np.abs(kx) <= s.nx // 3)
            & (np.abs(ky) <= s.ny // 3)
            & (np.abs(kz) <= s.nz // 3)
        )
        #: dt * i(kx + ky + kz), zero outside the 2/3-rule band
        self.flux_factor = self.dt * 1j * (kx + ky + kz) * dealias
        self.steps_done = 0

    def _advance(self, u_hat, rfftn, irfftn):
        """One Euler step; ``rfftn``/``irfftn`` supply the transform pair."""
        u = irfftn(u_hat)
        flux_hat = rfftn(0.5 * u * u)
        return (u_hat - self.flux_factor * flux_hat) * self.visc

    def step(self, index: int) -> dict:
        s = self.config.shape
        elapsed = [0.0]

        def irfftn(u_hat):
            out, res = parallel_irfft3d(u_hat, s.p, self.config.platform,
                                        self.params, self.variant)
            elapsed[0] += res.elapsed
            return out

        def rfftn(u):
            out, res = parallel_rfft3d(u, s.p, self.config.platform,
                                       self.params, self.variant)
            elapsed[0] += res.elapsed
            return out

        self.u_hat = self._advance(self.u_hat, rfftn, irfftn)
        self.steps_done += 1
        return {"virtual_s": elapsed[0]}

    def oracle_error(self) -> float:
        ref = self.u_hat0.copy()
        for _ in range(self.steps_done):
            ref = self._advance(ref, np.fft.rfftn, np.fft.irfftn)
        scale = float(np.abs(ref).max()) or 1.0
        return float(np.abs(self.u_hat - ref).max()) / scale
