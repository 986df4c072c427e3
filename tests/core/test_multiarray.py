"""Multi-array FFT: inter/intra/combined overlap (paper §6-§7)."""

import numpy as np
import pytest

from repro.core import ProblemShape
from repro.core.multiarray import MODES, run_multi_array
from repro.errors import ParameterError, SimulationError
from repro.machine import HOPPER, UMD_CLUSTER
from repro.simmpi import run_spmd

RNG = np.random.default_rng(44)


def arrays(n, count):
    return [
        RNG.standard_normal((n, n, n)) + 1j * RNG.standard_normal((n, n, n))
        for _ in range(count)
    ]


class TestCorrectness:
    @pytest.mark.parametrize("mode", MODES)
    def test_all_modes_match_numpy(self, mode):
        n, p, m = 16, 4, 3
        shape = ProblemShape(n, n, n, p)
        globs = arrays(n, m)
        _, spectra = run_multi_array(
            UMD_CLUSTER, shape, m, mode, global_arrays=globs
        )
        for a in range(m):
            assert np.allclose(
                spectra[a], np.fft.fftn(globs[a]), atol=1e-8
            ), (mode, a)

    def test_single_array_all_modes(self):
        n, p = 16, 4
        shape = ProblemShape(n, n, n, p)
        globs = arrays(n, 1)
        for mode in MODES:
            _, spectra = run_multi_array(
                UMD_CLUSTER, shape, 1, mode, global_arrays=globs
            )
            assert np.allclose(spectra[0], np.fft.fftn(globs[0]), atol=1e-8)

    def test_bad_mode_rejected(self):
        def prog(ctx):
            from repro.core.multiarray import MultiArrayFFT3D

            MultiArrayFFT3D(ctx, ProblemShape(8, 8, 8, 2), 2, "warp")
            yield from ()  # never blocks, but runs as a generator program

        with pytest.raises(SimulationError) as ei:
            run_spmd(2, prog, UMD_CLUSTER)
        assert isinstance(ei.value.__cause__, ParameterError)

    def test_zero_arrays_rejected(self):
        def prog(ctx):
            from repro.core.multiarray import MultiArrayFFT3D

            MultiArrayFFT3D(ctx, ProblemShape(8, 8, 8, 2), 0, "both")
            yield from ()  # never blocks, but runs as a generator program

        with pytest.raises(SimulationError) as ei:
            run_spmd(2, prog, UMD_CLUSTER)
        assert isinstance(ei.value.__cause__, ParameterError)


class TestInputValidation:
    """``run_multi_array`` checks the array count and every array's
    shape before the engine runs, the same way in every mode."""

    SHAPE = ProblemShape(8, 8, 8, 2)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("dims", [
        [(8, 8, 8)] * 3,          # one array too many
        [(8, 8, 8)],              # one too few
        [(8, 8, 8), (8, 8, 6)],   # short z extent
        [(12, 8, 8), (8, 8, 8)],  # long x extent
    ])
    def test_bad_arrays_rejected(self, mode, dims):
        globs = [np.zeros(d, dtype=complex) for d in dims]
        with pytest.raises(ParameterError):
            run_multi_array(UMD_CLUSTER, self.SHAPE, 2, mode, global_arrays=globs)


class TestOverlapEconomics:
    @pytest.fixture(scope="class")
    def times(self):
        shape = ProblemShape(256, 256, 256, 16)
        m = 4
        out = {}
        for mode in MODES:
            sim, _ = run_multi_array(UMD_CLUSTER, shape, m, mode)
            out[mode] = sim.elapsed
        return out

    def test_every_overlap_mode_beats_sequential(self, times):
        assert times["inter"] < times["sequential"]
        assert times["intra"] < times["sequential"]
        assert times["both"] < times["sequential"]

    def test_combined_is_best(self, times):
        """The paper's §7 goal: intra + inter overlap together beats
        either alone (no window drain at array boundaries)."""
        assert times["both"] <= times["intra"] * 1.001
        assert times["both"] <= times["inter"] * 1.001

    def test_inter_array_needs_multiple_arrays(self):
        """Kandalla-style overlap is ineffective for a single array —
        the paper's §1 criticism: with one array it degenerates to the
        blocking pipeline."""
        shape = ProblemShape(256, 256, 256, 16)
        one_inter, _ = run_multi_array(UMD_CLUSTER, shape, 1, "inter")
        one_seq, _ = run_multi_array(UMD_CLUSTER, shape, 1, "sequential")
        one_intra, _ = run_multi_array(UMD_CLUSTER, shape, 1, "intra")
        assert one_inter.elapsed >= one_seq.elapsed * 0.98  # no real gain
        assert one_intra.elapsed < one_inter.elapsed  # paper's point

    def test_scaling_in_array_count(self):
        """Per-array cost in 'both' mode stays flat as arrays accumulate
        (steady-state pipeline)."""
        shape = ProblemShape(128, 128, 128, 8)
        t2, _ = run_multi_array(HOPPER, shape, 2, "both")
        t6, _ = run_multi_array(HOPPER, shape, 6, "both")
        per2 = t2.elapsed / 2
        per6 = t6.elapsed / 6
        assert per6 <= per2 * 1.05
