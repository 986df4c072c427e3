"""Spectral Poisson solver on the simulated cluster.

Solves the periodic Poisson problem -laplace(u) = f on [0, 2*pi)^3 with
the distributed FFT: r2c-transform the real f to its half spectrum,
divide by |k|^2, c2r-transform back.  The manufactured solution
``u = sin(x) * sin(2y) * cos(3z)`` verifies the result.  Differential-
equation solving is one of the FFT uses the paper's introduction leads
with.

The solver itself lives in :mod:`repro.apps.poisson` (the traffic-shaped
app driver); this example is a thin wrapper that runs one solve and
checks it against the exact eigenfunction.

    python examples/poisson_solver.py
"""

import numpy as np

from repro.apps import manufactured_problem, solve_poisson
from repro.machine import HOPPER


def main() -> None:
    n, p = 32, 8
    f, u_exact = manufactured_problem((n, n, n))

    print(f"Solving -laplace(u) = f spectrally on a {n}^3 periodic grid"
          f" with {p} simulated ranks (Hopper model)")

    # solve_poisson solves laplace(u) = source, so pass -f.
    u, (fwd, inv) = solve_poisson(-f, p, HOPPER)

    err = np.abs(u - u_exact).max()
    print(f"  max |u - u_exact| = {err:.3e}")
    assert err < 1e-10, "spectral solve must be exact for an eigenfunction"

    total = fwd.elapsed + inv.elapsed
    print(f"  simulated time: r2c {fwd.elapsed * 1e3:.2f} ms + "
          f"c2r {inv.elapsed * 1e3:.2f} ms = {total * 1e3:.2f} ms")
    print("Poisson solve verified.")


if __name__ == "__main__":
    main()
