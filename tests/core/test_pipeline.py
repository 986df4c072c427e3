"""End-to-end distributed FFT: numerical correctness and overlap behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BREAKDOWN_LABELS,
    NEW,
    ProblemShape,
    TuningParams,
    default_params,
    parallel_fft3d,
    parallel_ifft3d,
    run_case,
)
from repro.errors import ParameterError
from repro.machine import HOPPER, UMD_CLUSTER

RNG = np.random.default_rng(11)


def csig(*shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


class TestNumericalCorrectness:
    @pytest.mark.parametrize(
        "nx,ny,nz,p",
        [
            (16, 16, 16, 4),   # cubic, fast-transpose path
            (16, 8, 12, 4),    # Nx != Ny, general path
            (12, 20, 8, 3),
            (10, 10, 6, 5),    # uneven slabs both ways
            (24, 24, 24, 6),
            (8, 8, 8, 8),      # one plane per rank
            (9, 7, 5, 1),      # single rank
        ],
    )
    def test_matches_numpy_fftn(self, nx, ny, nz, p):
        a = csig(nx, ny, nz)
        spec, _ = parallel_fft3d(a, p, UMD_CLUSTER)
        assert np.allclose(spec, np.fft.fftn(a), atol=1e-8)

    @pytest.mark.parametrize("variant", ["NEW", "NEW-0", "TH", "TH-0", "FFTW"])
    def test_all_variants_numerically_identical(self, variant):
        a = csig(16, 16, 16)
        shape = ProblemShape(16, 16, 16, 4)
        _, spec = run_case(variant, UMD_CLUSTER, shape, global_array=a)
        assert np.allclose(spec, np.fft.fftn(a), atol=1e-8)

    @pytest.mark.parametrize("variant", ["NEW", "TH"])
    def test_variants_on_noncubic(self, variant):
        a = csig(12, 18, 10)
        shape = ProblemShape(12, 18, 10, 3)
        _, spec = run_case(variant, UMD_CLUSTER, shape, global_array=a)
        assert np.allclose(spec, np.fft.fftn(a), atol=1e-8)

    def test_inverse_roundtrip(self):
        a = csig(16, 16, 8)
        spec = np.fft.fftn(a)
        back, _ = parallel_ifft3d(spec, 4, UMD_CLUSTER)
        assert np.allclose(back, a, atol=1e-9)

    @given(
        st.sampled_from([1, 2, 3, 4]),           # p
        st.sampled_from([4, 6, 8, 12]),          # nx
        st.sampled_from([4, 5, 8, 9]),           # ny
        st.sampled_from([3, 4, 8]),              # nz
        st.sampled_from([1, 2, 3, 8]),           # T
        st.sampled_from([1, 2, 4]),              # W
    )
    @settings(max_examples=25, deadline=None)
    def test_correct_for_arbitrary_tilings(self, p, nx, ny, nz, t, w):
        if p > min(nx, ny):
            return
        a = csig(nx, ny, nz)
        shape = ProblemShape(nx, ny, nz, p)
        params = default_params(shape).replace(T=min(t, nz), W=w)
        _, spec = run_case("NEW", UMD_CLUSTER, shape, params, global_array=a)
        assert np.allclose(spec, np.fft.fftn(a), atol=1e-8)

    def test_params_do_not_change_results(self):
        a = csig(16, 16, 16)
        shape = ProblemShape(16, 16, 16, 4)
        p1 = default_params(shape)
        p2 = p1.replace(T=2, W=3, Px=1, Pz=1, Uy=1, Uz=1, Fy=32, Fp=1, Fu=7, Fx=2)
        _, s1 = run_case("NEW", UMD_CLUSTER, shape, p1, global_array=a)
        _, s2 = run_case("NEW", UMD_CLUSTER, shape, p2, global_array=a)
        assert np.allclose(s1, s2, atol=1e-10)

    def test_wrong_array_shape_rejected(self):
        with pytest.raises(ParameterError):
            run_case(
                "NEW", UMD_CLUSTER, ProblemShape(8, 8, 8, 2),
                global_array=csig(8, 8, 9),
            )

    def test_non3d_rejected(self):
        with pytest.raises(ParameterError):
            parallel_fft3d(csig(8, 8), 2, UMD_CLUSTER)


class TestProgressPhasesEquivalence:
    """``ctx.progress_phases`` inlines ``AlltoallRequest.progress_segment``
    and the two clock advances; it must be exactly equivalent to the
    unfused reference spelling — the phase's test budget split over the
    live window, one ``progress_segment`` per request, then
    ``Engine.advance`` for the phase and for the Test overhead — with
    the same clocks, traces, and event timelines (the
    ``progress_phases`` docstring points here)."""

    @staticmethod
    def _unfused(ctx, seconds, total, label, reqs):
        live = [r for r in reqs if not r.consumed]
        t0 = ctx.now
        tests = 0
        if live and total > 0:
            base, extra = divmod(total, len(live))
            for i, req in enumerate(live):
                ntests = base + (1 if i < extra else 0)
                if ntests > 0:
                    req.progress_segment(t0, seconds, ntests)
                    tests += ntests
        ctx.engine.advance(ctx.rank, seconds, label)
        if tests:
            ctx.engine.advance(ctx.rank, tests * ctx.cpu.test_overhead, "Test")

    @classmethod
    def _body(cls, ctx, fused):
        comm = ctx.comm
        reqs = [comm.ialltoall([4096 * (k + 1)] * ctx.size) for k in range(3)]
        phases = ((2e-4, 7, "FFTy"), (1.3e-4, 3, "Pack"))
        idle = (5e-5, 0, "Idle")
        if fused:
            ctx.progress_phases(phases, reqs)
            ctx.progress_phases((idle,), reqs)
        else:
            for seconds, total, label in (*phases, idle):
                cls._unfused(ctx, seconds, total, label, reqs)
        out = []
        for r in reqs:
            out.append((yield from comm.co_wait(r)) is None)
        return ctx.now, tuple(out)

    def test_fused_matches_unfused(self):
        from repro.simmpi import run_spmd

        def prog_fused(ctx):
            return (yield from self._body(ctx, True))

        def prog_unfused(ctx):
            return (yield from self._body(ctx, False))

        a = run_spmd(4, prog_fused, UMD_CLUSTER, record_events=True)
        b = run_spmd(4, prog_unfused, UMD_CLUSTER, record_events=True)
        assert a.elapsed == b.elapsed  # exact, no tolerance
        assert a.results == b.results
        assert [t.by_label for t in a.traces] == [t.by_label for t in b.traces]
        assert [t.events for t in a.traces] == [t.events for t in b.traces]


class TestTimingBehavior:
    def test_breakdown_has_paper_labels(self):
        res, _ = run_case("NEW", UMD_CLUSTER, ProblemShape(64, 64, 64, 4))
        assert set(res.breakdown) == set(BREAKDOWN_LABELS)

    def test_virtual_and_real_same_virtual_time(self):
        shape = ProblemShape(16, 16, 16, 4)
        virt, _ = run_case("NEW", UMD_CLUSTER, shape)
        real, _ = run_case("NEW", UMD_CLUSTER, shape, global_array=csig(16, 16, 16))
        assert virt.elapsed == pytest.approx(real.elapsed, rel=1e-12)

    def test_overlap_beats_no_overlap(self):
        shape = ProblemShape(256, 256, 256, 16)
        new, _ = run_case("NEW", UMD_CLUSTER, shape)
        new0, _ = run_case("NEW-0", UMD_CLUSTER, shape)
        assert new.elapsed < new0.elapsed

    def test_new_beats_th_beats_nothing(self):
        # Paper ordering at every Table 2 cell: NEW < TH (and NEW < FFTW).
        shape = ProblemShape(256, 256, 256, 16)
        new, _ = run_case("NEW", UMD_CLUSTER, shape)
        th, _ = run_case("TH", UMD_CLUSTER, shape)
        fftw, _ = run_case("FFTW", UMD_CLUSTER, shape)
        assert new.elapsed < th.elapsed
        assert new.elapsed < fftw.elapsed

    def test_overlap_shrinks_wait(self):
        # On UMD the cell is communication-bound, so Wait shrinks but a
        # residual remains; on Hopper communication fits under the
        # overlappable compute and Wait nearly vanishes (Figure 8(a,b)).
        shape = ProblemShape(256, 256, 256, 16)
        new, _ = run_case("NEW", UMD_CLUSTER, shape)
        new0, _ = run_case("NEW-0", UMD_CLUSTER, shape)
        assert new.breakdown["Wait"] < 0.6 * new0.breakdown["Wait"]
        hnew, _ = run_case("NEW", HOPPER, shape)
        hnew0, _ = run_case("NEW-0", HOPPER, shape)
        assert hnew.breakdown["Wait"] < 0.1 * hnew0.breakdown["Wait"]

    def test_th_waits_more_than_new(self):
        # TH does not overlap Unpack/FFTx, so rounds left unposted during
        # those steps surface at Wait.  Checked where communication fits
        # under NEW's overlappable compute (Hopper — Figure 8(b)); on a
        # NIC-saturated cell both variants converge to the wire time.
        shape = ProblemShape(640, 640, 640, 32)
        new, _ = run_case("NEW", HOPPER, shape)
        th, _ = run_case("TH", HOPPER, shape)
        assert th.breakdown["Wait"] > new.breakdown["Wait"]

    def test_fixed_steps_skippable(self):
        shape = ProblemShape(128, 128, 128, 8)
        full, _ = run_case("NEW", UMD_CLUSTER, shape)
        trimmed, _ = run_case("NEW", UMD_CLUSTER, shape, include_fixed_steps=False)
        fixed = full.breakdown["FFTz"] + full.breakdown["Transpose"]
        assert trimmed.breakdown["FFTz"] == 0
        assert trimmed.elapsed == pytest.approx(full.elapsed - fixed, rel=0.05)

    def test_real_payload_with_skipped_steps_rejected(self):
        with pytest.raises(Exception):
            run_case(
                "NEW", UMD_CLUSTER, ProblemShape(8, 8, 8, 2),
                global_array=csig(8, 8, 8), include_fixed_steps=False,
            )

    def test_fast_transpose_only_when_square(self):
        cube, _ = run_case("NEW", UMD_CLUSTER, ProblemShape(64, 64, 64, 4))
        rect, _ = run_case("NEW", UMD_CLUSTER, ProblemShape(64, 32, 128, 4))
        # Equal per-rank volume, but the cube uses the cheap x-z-y path.
        assert cube.breakdown["Transpose"] < rect.breakdown["Transpose"]

    def test_deterministic(self):
        shape = ProblemShape(128, 128, 128, 8)
        a, _ = run_case("NEW", UMD_CLUSTER, shape)
        b, _ = run_case("NEW", UMD_CLUSTER, shape)
        assert a.elapsed == b.elapsed
        assert a.breakdown == b.breakdown

    def test_platforms_differ(self):
        shape = ProblemShape(256, 256, 256, 16)
        umd, _ = run_case("FFTW", UMD_CLUSTER, shape)
        hop, _ = run_case("FFTW", HOPPER, shape)
        assert hop.elapsed < umd.elapsed  # Hopper is simply faster

    def test_str_smoke(self):
        res, _ = run_case("NEW", UMD_CLUSTER, ProblemShape(16, 16, 16, 2))
        assert "NEW" in str(res)
