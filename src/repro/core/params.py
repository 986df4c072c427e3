"""The paper's ten tunable parameters (Table 1) and their constraints.

``T``  — elements on z per communication tile (tile size)
``W``  — max tiles with concurrent all-to-all (window size)
``Px/Pz`` — Pack sub-tile extents on x/z (Algorithm 2, Figure 4 left)
``Uy/Uz`` — Unpack sub-tile extents on y/z (Algorithm 3, Figure 4 right)
``Fy/Fp/Fu/Fx`` — MPI_Test calls per tile during FFTy/Pack/Unpack/FFTx

Feasibility is *dependent*: e.g. ``Pz <= T``.  The Nelder-Mead search
works in an independent hyperrectangle and relies on
:meth:`TuningParams.check_feasible` raising
:class:`~repro.errors.InfeasibleConfigError` so the tuner can report an
infinite objective without running (Section 4.4, technique 1).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import ClassVar

from ..errors import InfeasibleConfigError, ParameterError
from ..util.intmath import ceil_div, clamp

#: Upper bound used for the window-size search range: the paper notes
#: "there are few possible values for W", so W is searched linearly.
W_MAX = 8

PARAM_NAMES = ("T", "W", "Px", "Pz", "Uy", "Uz", "Fy", "Fp", "Fu", "Fx")


@dataclass(frozen=True)
class ProblemShape:
    """The tuning context: global array extents and process count."""

    nx: int
    ny: int
    nz: int
    p: int
    #: whether ``p`` is bounded by Nx and Ny, as slabs need (a pencil
    #: grid's :class:`~repro.core.pencil.GridShape` is not)
    slab_limited: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if min(self.nx, self.ny, self.nz) < 1:
            raise ParameterError(f"array extents must be >= 1: {self}")
        if self.p < 1:
            raise ParameterError(f"need >= 1 process, got {self.p}")
        if self.slab_limited and (self.p > self.nx or self.p > self.ny):
            raise ParameterError(
                f"1-D decomposition needs p <= Nx and p <= Ny "
                f"(p={self.p}, Nx={self.nx}, Ny={self.ny})"
            )

    @property
    def nxl_max(self) -> int:
        """Largest per-rank x-slab extent (uneven division rounds up)."""
        return ceil_div(self.nx, self.p)

    @property
    def nyl_max(self) -> int:
        """Largest per-rank y-slab extent after the exchange."""
        return ceil_div(self.ny, self.p)

    @property
    def f_max(self) -> int:
        """Search-range cap for the MPI_Test frequency parameters.

        The all-to-all needs more progression rounds as p grows (the
        paper's default is ``p/2`` and its Table 3 shows tuned values up
        to 2048 at p=256), so the cap scales with p.
        """
        return max(64, 8 * self.p)


@dataclass(frozen=True)
class TuningParams:
    """One point in the ten-dimensional parameter space."""

    T: int
    W: int
    Px: int
    Pz: int
    Uy: int
    Uz: int
    Fy: int
    Fp: int
    Fu: int
    Fx: int

    def as_dict(self) -> dict[str, int]:
        """Parameter values keyed by their Table 1 names."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def replace(self, **kw: int) -> "TuningParams":
        """Copy with selected parameters replaced."""
        return replace(self, **kw)

    # -- validation -----------------------------------------------------------

    def check_feasible(self, shape: ProblemShape) -> None:
        """Raise :class:`InfeasibleConfigError` on any violated constraint."""
        errs: list[str] = []
        if not 1 <= self.T <= shape.nz:
            errs.append(f"T={self.T} not in [1, Nz={shape.nz}]")
        if not 1 <= self.W <= W_MAX:
            errs.append(f"W={self.W} not in [1, {W_MAX}]")
        if not 1 <= self.Px <= shape.nxl_max:
            errs.append(f"Px={self.Px} not in [1, Nx/p={shape.nxl_max}]")
        if not 1 <= self.Pz <= self.T:
            errs.append(f"Pz={self.Pz} not in [1, T={self.T}]")
        if not 1 <= self.Uy <= shape.nyl_max:
            errs.append(f"Uy={self.Uy} not in [1, Ny/p={shape.nyl_max}]")
        if not 1 <= self.Uz <= self.T:
            errs.append(f"Uz={self.Uz} not in [1, T={self.T}]")
        for name in ("Fy", "Fp", "Fu", "Fx"):
            v = getattr(self, name)
            if not 0 <= v <= shape.f_max:
                errs.append(f"{name}={v} not in [0, {shape.f_max}]")
        if errs:
            raise InfeasibleConfigError("; ".join(errs))

    def is_feasible(self, shape: ProblemShape) -> bool:
        """True when :meth:`check_feasible` passes."""
        try:
            self.check_feasible(shape)
        except InfeasibleConfigError:
            return False
        return True

    def num_tiles(self, nz: int) -> int:
        """k = ceil(Nz / T) communication tiles (Algorithm 1, line 3)."""
        return ceil_div(nz, self.T)


def default_params(shape: ProblemShape, cache_bytes: int = 256 * 1024) -> TuningParams:
    """The paper's default point (Section 4.4, initial-simplex seed).

    ``T = Nz/16`` for some overlap; ``W = 2`` for some communication
    parallelism; sub-tiles sized so one sub-tile (~8K complex elements
    for a 256 KB cache) fits in cache; ``F* = p/2``.
    """
    elems = max(1, cache_bytes // 16 // 2)  # complex128 elements, half cache
    t = clamp(shape.nz // 16, 1, shape.nz)
    px = clamp(elems // shape.ny, 1, shape.nxl_max)
    pz = clamp(elems // shape.ny // max(px, 1), 1, t)
    uy = clamp(elems // shape.nx, 1, shape.nyl_max)
    uz = clamp(elems // shape.nx // max(uy, 1), 1, t)
    f = clamp(shape.p // 2, 1, shape.f_max)
    return TuningParams(T=t, W=2, Px=px, Pz=pz, Uy=uy, Uz=uz,
                        Fy=f, Fp=f, Fu=f, Fx=f)
