"""Vectorized mixed-radix Cooley-Tukey FFT.

The transform is computed by a decimation-in-time recursion that is fully
vectorized over a batch of rows: at each stage a size-``n`` problem is
split into ``r`` interleaved size-``n/r`` subproblems (``r`` a small prime
or 4), the subresults are twiddled and recombined with a dense ``r``-point
DFT.  All stage constants (radix path, twiddle tables, butterfly
matrices) are precomputed by :class:`StagePlan` so repeated execution does
no trigonometry.

Radix paths are *policies*: the same size can be factorized
smallest-prime-first, largest-first, or with pairs of 2s fused into
radix-4 stages.  The planner (:mod:`repro.fft.plan`) times the candidate
policies under ``MEASURE``/``PATIENT`` flags, mirroring FFTW's planner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import PlanError
from ..util.intmath import prime_factors
from .dftmat import DIRECT_MAX, FORWARD, dft_matrix, rows_matmul, twiddles

#: Factorization policies understood by :func:`radix_path`.
POLICIES = ("small-first", "large-first", "radix4", "radix8")


def radix_path(n: int, policy: str = "small-first") -> list[int]:
    """Return the sequence of radices used to reduce ``n`` to 1.

    The product of the returned radices equals ``n``.  Raises
    :class:`PlanError` for unknown policies.
    """
    if n < 1:
        raise PlanError(f"FFT size must be >= 1, got {n}")
    factors = prime_factors(n)
    if policy == "small-first":
        return factors
    if policy == "large-first":
        return factors[::-1]
    if policy in ("radix4", "radix8"):
        fuse = 2 if policy == "radix4" else 3
        twos = factors.count(2)
        rest = [f for f in factors if f != 2]
        path: list[int] = []
        while twos >= fuse:
            path.append(1 << fuse)
            twos -= fuse
        path.extend([2] * twos)
        return path + rest
    raise PlanError(f"unknown radix policy {policy!r}; choose from {POLICIES}")


@dataclass(frozen=True)
class _Stage:
    """Precomputed constants for one recursion level."""

    n: int          # problem size entering this stage
    r: int          # radix
    m: int          # n // r
    tw: np.ndarray  # (r, m) twiddle table
    wr: np.ndarray  # (r, r) butterfly DFT matrix


@dataclass
class StagePlan:
    """Precomputed mixed-radix execution plan for one (size, sign, policy).

    ``execute`` transforms the last axis of a ``(batch, n)`` array.  The
    recursion is iterative from the caller's point of view: the stage list
    is walked inward (splitting) and back outward (combining).
    """

    n: int
    sign: int = FORWARD
    policy: str = "small-first"
    stages: list[_Stage] = field(init=False, repr=False)
    base: np.ndarray | None = field(init=False, repr=False)
    base_n: int = field(init=False)

    def __post_init__(self) -> None:
        path = radix_path(self.n, self.policy)
        stages: list[_Stage] = []
        size = self.n
        # Peel stages until the remaining subproblem is small enough for a
        # direct dense DFT, or fully reduced.
        for r in path:
            if size <= 8 or (r == size and size <= DIRECT_MAX):
                break
            stages.append(
                _Stage(
                    n=size,
                    r=r,
                    m=size // r,
                    tw=twiddles(size, r, self.sign),
                    wr=dft_matrix(r, self.sign),
                )
            )
            size //= r
        self.stages = stages
        self.base_n = size
        self.base = dft_matrix(size, self.sign).T if size > 1 else None

    # -- execution -----------------------------------------------------

    def execute(self, x: np.ndarray) -> np.ndarray:
        """Transform the last axis of ``x`` (shape ``(..., n)``).

        Returns a new array; the input is not modified.
        """
        if x.shape[-1] != self.n:
            raise PlanError(
                f"plan is for size {self.n}, input last axis is {x.shape[-1]}"
            )
        lead = x.shape[:-1]
        flat = np.ascontiguousarray(x, dtype=np.complex128).reshape(-1, self.n)
        out = self._run(flat, 0)
        return out.reshape(*lead, self.n)

    def _run(self, x: np.ndarray, depth: int) -> np.ndarray:
        """Recursive worker on a ``(B, size)`` array at stage ``depth``."""
        if depth == len(self.stages):
            if self.base is None:
                return x
            return rows_matmul(x, self.base)
        st = self.stages[depth]
        b = x.shape[0]
        # Decimate in time: row s of the (r, m) view is x[s::r].
        xs = x.reshape(b, st.m, st.r).transpose(0, 2, 1).reshape(b * st.r, st.m)
        sub = self._run(xs, depth + 1).reshape(b, st.r, st.m)
        sub = sub * st.tw  # twiddle each decimated subtransform
        if st.r == 2:
            # Explicit butterfly: cheaper than einsum for the common radix.
            top = sub[:, 0, :] + sub[:, 1, :]
            bot = sub[:, 0, :] - sub[:, 1, :]
            out = np.concatenate((top, bot), axis=1)
        else:
            out = np.einsum("ks,bsj->bkj", st.wr, sub).reshape(b, st.n)
        return out

    # -- cost metadata ---------------------------------------------------

    @property
    def flop_estimate(self) -> float:
        """Classic ``5 n log2 n`` floating-point-operation estimate."""
        return 5.0 * self.n * np.log2(max(self.n, 2))
