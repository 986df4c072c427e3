"""Cross-module integration and property tests.

These exercise whole stacks at once: simulator invariants under the FFT
pipeline, tuning on top of the pipeline on top of the simulator, and
application-level flows like the examples'.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ProblemShape,
    TuningParams,
    default_params,
    parallel_fft3d,
    parallel_ifft3d,
    run_case,
)
from repro.machine import HOPPER, UMD_CLUSTER
from repro.simmpi import run_spmd

RNG = np.random.default_rng(33)


def csig(*shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


class TestSimulatorInvariants:
    @given(
        st.sampled_from([2, 4, 8]),
        st.sampled_from([1, 4, 16, 64]),        # T
        st.integers(1, 4),                      # W
        st.sampled_from([0, 1, 8, 64]),         # F
    )
    @settings(max_examples=25, deadline=None)
    def test_elapsed_positive_and_bounded(self, p, t, w, f):
        shape = ProblemShape(64, 64, 64, p)
        t = min(t, 64)
        base = default_params(shape)
        params = base.replace(
            T=t, W=w, Pz=min(base.Pz, t), Uz=min(base.Uz, t),
            Fy=f, Fp=f, Fu=f, Fx=f,
        )
        res, _ = run_case("NEW", UMD_CLUSTER, shape, params)
        assert 0 < res.elapsed < 60.0
        # Breakdown components can overlap Wait, but each is bounded by
        # the makespan.
        for label, secs in res.breakdown.items():
            assert 0 <= secs <= res.elapsed + 1e-12, label

    @given(st.sampled_from([2, 3, 4, 8]))
    @settings(max_examples=8, deadline=None)
    def test_bytes_injected_conservation(self, p):
        """Every rank injects exactly its off-rank send volume."""
        from repro.simmpi.engine import Engine

        n = 32
        shape = ProblemShape(n, n, n, p)

        def prog(ctx):
            from repro.core.plan import ParallelFFT3D

            yield from ParallelFFT3D(ctx, shape, default_params(shape)).steps(None)

        eng = Engine(p, UMD_CLUSTER)
        eng.run(prog)
        for rank in range(p):
            nxl = n // p + (1 if rank < n % p else 0)
            nyl_total = n - (n // p + (1 if rank < n % p else 0))
            expected = nxl * nyl_total * n * 16  # all off-rank chunks
            assert eng.fabric.bytes_injected[rank] == pytest.approx(expected)

    def test_overlap_never_slower_than_no_overlap(self):
        # Overlap can be useless, never harmful beyond test overhead.
        for p, n in [(4, 64), (8, 128)]:
            shape = ProblemShape(n, n, n, p)
            new, _ = run_case("NEW", UMD_CLUSTER, shape)
            new0, _ = run_case("NEW-0", UMD_CLUSTER, shape)
            assert new.elapsed <= new0.elapsed * 1.02

    def test_time_scales_with_problem_size(self):
        t64, _ = run_case("NEW", UMD_CLUSTER, ProblemShape(64, 64, 64, 4))
        t128, _ = run_case("NEW", UMD_CLUSTER, ProblemShape(128, 128, 128, 4))
        # 8x the data and 8x+ the flops: super-linear growth in N^3.
        assert t128.elapsed > 6 * t64.elapsed


class TestApplicationFlows:
    def test_convolution_theorem(self):
        """Distributed FFT obeys conv(a, b) = ifft(fft(a) * fft(b))."""
        n, p = 16, 4
        a = csig(n, n, n)
        b = csig(n, n, n)
        fa, _ = parallel_fft3d(a, p, HOPPER)
        fb, _ = parallel_fft3d(b, p, HOPPER)
        conv, _ = parallel_ifft3d(fa * fb, p, HOPPER)
        ref = np.fft.ifftn(np.fft.fftn(a) * np.fft.fftn(b))
        assert np.allclose(conv, ref, atol=1e-8)

    def test_parseval_distributed(self):
        n, p = 12, 3
        a = csig(n, n, n)
        spec, _ = parallel_fft3d(a, p, UMD_CLUSTER)
        assert np.isclose(
            np.sum(np.abs(spec) ** 2),
            n**3 * np.sum(np.abs(a) ** 2),
            rtol=1e-9,
        )

    def test_successive_transforms_on_one_array(self):
        """Scientific simulations 'perform successive 3-D FFT operations
        on a single array' (Section 1) — repeated forward/backward
        round-trips must stay numerically stable."""
        n, p = 16, 4
        a = csig(n, n, n)
        cur = a
        for _ in range(3):
            spec, _ = parallel_fft3d(cur, p, HOPPER)
            cur, _ = parallel_ifft3d(spec, p, HOPPER)
        assert np.allclose(cur, a, atol=1e-8)

    def test_spectral_derivative(self):
        """d/dx sin(x) = cos(x) via the distributed transform."""
        n, p = 32, 4
        grid = 2 * np.pi * np.arange(n) / n
        x = np.broadcast_to(grid[:, None, None], (n, n, n)).copy()
        f = np.sin(x).astype(np.complex128)
        spec, _ = parallel_fft3d(f, p, HOPPER)
        k = np.fft.fftfreq(n, d=1.0 / n)
        dspec = 1j * k[:, None, None] * spec
        df, _ = parallel_ifft3d(dspec, p, HOPPER)
        assert np.allclose(df.real, np.cos(x), atol=1e-9)


class TestTuningIntegration:
    def test_tuning_is_deterministic(self):
        from repro.tuning import autotune

        shape = ProblemShape(64, 64, 64, 4)
        a = autotune("NEW", UMD_CLUSTER, shape)
        b = autotune("NEW", UMD_CLUSTER, shape)
        assert a.best_params == b.best_params
        assert a.fft_time == b.fft_time

    def test_tuned_params_run_correctly_with_real_payload(self):
        """The tuner's winner must produce a numerically correct FFT."""
        from repro.tuning import autotune

        shape = ProblemShape(16, 16, 16, 4)
        tuned = autotune("NEW", UMD_CLUSTER, shape)
        arr = csig(16, 16, 16)
        _, spec = run_case(
            "NEW", UMD_CLUSTER, shape, tuned.best_params, global_array=arr
        )
        assert np.allclose(spec, np.fft.fftn(arr), atol=1e-8)

    def test_platforms_get_different_tuned_configs_somewhere(self):
        """Figure 9's premise: the winning configuration is platform-
        dependent (checked across a few cells to dodge coincidences)."""
        from repro.tuning import autotune

        diffs = 0
        for n, p in [(128, 8), (256, 16)]:
            shape = ProblemShape(n, n, n, p)
            u = autotune("NEW", UMD_CLUSTER, shape).best_params
            h = autotune("NEW", HOPPER, shape).best_params
            if u != h:
                diffs += 1
        assert diffs >= 1


class TestMixedWorkloads:
    def test_fft_alongside_other_communication(self):
        """The FFT plan composes with surrounding application traffic on
        the same communicator (an exchange of its own before the
        transform, and a reduction after it)."""
        n, p = 16, 4
        shape = ProblemShape(n, n, n, p)
        arr = csig(n, n, n)
        from repro.core.decompose import scatter_slabs
        from repro.core.plan import ParallelFFT3D

        blocks = scatter_slabs(arr, p)

        def prog(ctx):
            c = ctx.comm
            # application exchange before the transform
            got = yield from c.co_alltoall(1024, payload=[c.rank] * c.size)
            assert got == list(range(c.size))
            plan = ParallelFFT3D(ctx, shape, default_params(shape))
            out = yield from plan.steps(blocks[ctx.rank])
            got = yield from c.co_alltoall(8, payload=[c.rank] * c.size)
            assert sum(got) == sum(range(c.size))
            return out, plan.output_layout

        res = run_spmd(p, prog, UMD_CLUSTER)
        from repro.core.decompose import gather_spectrum

        outs = [o for o, _ in res.results]
        spec = gather_spectrum(outs, (n, n, n), res.results[0][1])
        assert np.allclose(spec, np.fft.fftn(arr), atol=1e-8)
