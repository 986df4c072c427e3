"""Energy spectrum of a synthetic turbulent velocity field.

Spectral analysis of flow fields is the other headline FFT workload the
paper's introduction cites (petascale blood-flow simulation, ref [25]).
This example synthesizes a random solenoidal-ish velocity field with a
Kolmogorov-like -5/3 energy law, computes its 3-D spectrum with the
*distributed real-to-complex* pipeline (Section 2.3 extension), bins the
energy into shells, recovers the imposed slope, and brings the field
back with the distributed complex-to-real inverse.

The field synthesis and shell binning live in
:mod:`repro.apps.turbulence` (shared with the pseudo-spectral app
driver); this example keeps its CLI face as a thin wrapper.

    python examples/turbulence_spectrum.py
"""

import numpy as np

from repro.apps import shell_spectrum, synth_velocity
from repro.core import parallel_irfft3d, parallel_rfft3d
from repro.machine import HOPPER

N, P = 64, 8


def main() -> None:
    print(f"Turbulence spectrum via distributed r2c FFT ({N}^3, {P} ranks)")
    u = synth_velocity(7, N)
    half, res = parallel_rfft3d(u, P, HOPPER)
    print(f"  simulated transform time: {res.elapsed * 1e3:.2f} ms")

    shells, e_k = shell_spectrum(half, N)
    # Fit the log-log slope over the inertial range.
    sel = (shells >= 3) & (shells <= N // 4) & (e_k > 0)
    slope = np.polyfit(np.log(shells[sel]), np.log(e_k[sel]), 1)[0]
    print(f"  fitted spectral slope: {slope:.2f} (target -5/3 = -1.67)")
    assert -2.3 < slope < -1.0, "slope should be Kolmogorov-like"

    # Distributed result must agree with the serial reference.
    ref = np.fft.rfftn(u)
    err = np.abs(half - ref).max() / np.abs(ref).max()
    print(f"  relative error vs numpy.fft.rfftn: {err:.2e}")
    assert err < 1e-10

    back, inv = parallel_irfft3d(half, P, HOPPER)
    err = np.abs(back - u).max()
    print(f"  c2r inverse: simulated {inv.elapsed * 1e3:.2f} ms, "
          f"max |u - irfft(rfft(u))| = {err:.2e}")
    assert err < 1e-12
    print("Spectrum analysis verified.")


if __name__ == "__main__":
    main()
