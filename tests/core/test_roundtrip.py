"""Forward -> inverse round trips through the distributed pipelines.

The apps layer (DESIGN.md §5.15) leans on the conjugation-identity
inverse in :func:`repro.core.api.parallel_ifft3d` every step; these
tests pin it — at the API level against numpy, and through all four
multi-array modes.
"""

import numpy as np
import pytest

from repro.core import ProblemShape, parallel_fft3d, parallel_ifft3d
from repro.core.multiarray import MODES, run_multi_array
from repro.machine import UMD_CLUSTER

RNG = np.random.default_rng(1234)

N, P = 16, 4


def field(shape=(N, N, N)):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


class TestApiRoundTrip:
    def test_inverse_matches_numpy(self):
        x = field()
        spec, _ = parallel_ifft3d(x, P, UMD_CLUSTER)
        ref = np.fft.ifftn(x)
        assert np.abs(spec - ref).max() / np.abs(ref).max() < 1e-12

    def test_forward_inverse_recovers_input(self):
        x = field()
        spec, _ = parallel_fft3d(x, P, UMD_CLUSTER)
        back, _ = parallel_ifft3d(spec, P, UMD_CLUSTER)
        assert np.abs(back - x).max() < 1e-12 * np.abs(x).max()

    def test_anisotropic_roundtrip(self):
        x = field((12, 16, 20))
        spec, _ = parallel_fft3d(x, P, UMD_CLUSTER)
        assert np.abs(spec - np.fft.fftn(x)).max() < 1e-10
        back, _ = parallel_ifft3d(spec, P, UMD_CLUSTER)
        assert np.abs(back - x).max() < 1e-12 * np.abs(x).max()

    def test_conjugation_identity_is_exact(self):
        """The inverse is literally conj(fft(conj(x)))/size — pinned so a
        future 'native' inverse can't silently change semantics."""
        x = field()
        inv, _ = parallel_ifft3d(x, P, UMD_CLUSTER)
        fwd, _ = parallel_fft3d(np.conj(x), P, UMD_CLUSTER)
        assert np.array_equal(inv, np.conj(fwd) / x.size)


class TestMultiArrayRoundTrip:
    """Round trips through every overlap mode."""

    @pytest.mark.parametrize("mode", MODES)
    def test_roundtrip_all_modes(self, mode):
        m = 2
        shape = ProblemShape(N, N, N, P)
        globs = [field() for _ in range(m)]
        _, spectra = run_multi_array(
            UMD_CLUSTER, shape, m, mode, global_arrays=globs
        )
        # Inverse ride: conjugation identity through the same pipeline.
        _, inv_specs = run_multi_array(
            UMD_CLUSTER, shape, m, mode,
            global_arrays=[np.conj(s) for s in spectra],
        )
        for orig, inv in zip(globs, inv_specs):
            back = np.conj(inv) / orig.size
            assert np.abs(back - orig).max() < 1e-12 * np.abs(orig).max()
