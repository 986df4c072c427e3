"""Planner, wisdom, transposes, real transforms, and the serial 3-D FFT."""

import json

import numpy as np
import pytest

from repro.errors import PlanError
from repro.fft import (
    BACKWARD,
    FORWARD,
    Flag,
    Plan1D,
    Plan3D,
    WisdomStore,
    fft,
    fftn,
    ifft,
    ifftn,
    irfft,
    rfft,
)
from repro.fft.dftmat import DIRECT_MAX
from repro.fft.plan import _candidates
from repro.fft.transpose import (
    bytes_moved,
    plane_transpose,
    xyz_to_xzy,
    xyz_to_zxy,
    zxy_to_xyz,
)
from repro.obs.registry import MetricsRegistry, scoped_registry

RNG = np.random.default_rng(7)


def csig(*shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


class TestPlan1D:
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 13, 36, 100, 384, 1000])
    def test_matches_numpy(self, n):
        x = csig(3, n)
        assert np.allclose(Plan1D(n).execute(x), np.fft.fft(x), atol=1e-8)

    def test_backward_normalized(self):
        x = csig(2, 24)
        spec = np.fft.fft(x)
        got = Plan1D(24, BACKWARD).execute(spec, normalize=True)
        assert np.allclose(got, x, atol=1e-10)

    def test_axis_argument(self):
        x = csig(8, 5, 6)
        got = Plan1D(5).execute(x, axis=1)
        assert np.allclose(got, np.fft.fft(x, axis=1), atol=1e-10)

    def test_wrong_axis_length(self):
        with pytest.raises(PlanError):
            Plan1D(8).execute(csig(2, 9))

    def test_invalid_construction(self):
        with pytest.raises(PlanError):
            Plan1D(0)
        with pytest.raises(PlanError):
            Plan1D(8, sign=3)

    def test_real_input_promoted(self):
        x = RNG.standard_normal((2, 16))
        assert np.allclose(Plan1D(16).execute(x), np.fft.fft(x), atol=1e-10)

    @pytest.mark.parametrize("flag", list(Flag))
    def test_all_flags_produce_correct_plans(self, flag):
        wisdom = WisdomStore()
        x = csig(2, 48)
        plan = Plan1D(48, flag=flag, wisdom=wisdom)
        assert np.allclose(plan.execute(x), np.fft.fft(x), atol=1e-9)

    def test_large_prime_uses_bluestein(self):
        plan = Plan1D(997)
        assert plan.kernel_name == "bluestein"

    def test_tiny_size_uses_direct(self):
        assert Plan1D(4).kernel_name == "direct"

    def test_estimate_picks_the_gemm_kernels(self):
        # Fixed by the cost model, whatever the host: one dense gemm up
        # to DIRECT_MAX, the two-factor kernel above it.
        w = WisdomStore()
        for n in range(2, DIRECT_MAX + 1):
            assert Plan1D(n, flag=Flag.ESTIMATE, wisdom=w).kernel_name == "direct", n
        for n in (128, 256, 512, 1024, 2048, 4096):
            name = Plan1D(n, flag=Flag.ESTIMATE, wisdom=w).kernel_name
            assert name.startswith("twofactor:"), (n, name)

    def test_flop_estimate_positive(self):
        assert Plan1D(64).flop_estimate > 0

    def test_candidates_always_nonempty(self):
        for n in (1, 2, 17, 64, 65, 384, 997):
            assert _candidates(n)


class TestWisdom:
    def test_planning_records_wisdom(self):
        w = WisdomStore()
        Plan1D(36, flag=Flag.MEASURE, wisdom=w)
        assert w.lookup(36, FORWARD, "measure") is not None

    def test_replan_uses_cache(self):
        w = WisdomStore()
        w.record(32, FORWARD, "patient", "twofactor:4x8")
        plan = Plan1D(32, flag=Flag.PATIENT, wisdom=w)
        assert plan.kernel_name == "twofactor:4x8"

    @pytest.mark.parametrize("retired", ["mixed:radix4", "twofactor:3x5", "twofactor:x",
                                         "rdirect", "rpacked"])
    def test_retired_descriptor_is_a_miss(self, tmp_path, retired):
        # Wisdom saved by an older planner (or shipped back by a pool
        # worker) may name a kernel that no longer exists: re-plan.
        path = tmp_path / "wisdom.json"
        path.write_text(json.dumps([
            {"n": 64, "sign": FORWARD, "level": "estimate", "kernel": retired}]))
        w = WisdomStore()
        assert w.load(path) == 1
        with scoped_registry(MetricsRegistry()) as reg:
            plan = Plan1D(64, flag=Flag.ESTIMATE, wisdom=w)
            built = reg.snapshot()["fft_plans_built_total"]["samples"]
        assert plan.kernel_name == "direct"
        assert sum(v for _, v in built) == 1
        assert w.lookup(64, FORWARD, "estimate") == "direct"
        x = csig(2, 64)
        assert np.allclose(plan.execute(x), np.fft.fft(x), atol=1e-9)

    def test_roundtrip_json(self):
        w = WisdomStore()
        w.record(8, FORWARD, "estimate", "direct")
        w.record(640, FORWARD, "patient", "twofactor:20x32")
        w.record(8, FORWARD, "estimate", "rdirect", real=True)
        w2 = WisdomStore()
        added = w2.import_json(w.export_json())
        assert added == 3
        assert w2.lookup(640, FORWARD, "patient") == "twofactor:20x32"
        # real and complex plans of one size keep their own entries
        assert w2.lookup(8, FORWARD, "estimate") == "direct"
        assert w2.lookup(8, FORWARD, "estimate", real=True) == "rdirect"

    def test_real_plans_record_their_own_wisdom(self):
        w = WisdomStore()
        r2c = Plan1D(16, FORWARD, wisdom=w, real=True)
        c2r = Plan1D(16, BACKWARD, wisdom=w, real=True)
        assert (r2c.kernel_name, c2r.kernel_name) == ("rdirect", "rdirect")
        assert w.lookup(16, FORWARD, "estimate", real=True) == "rdirect"
        assert w.lookup(16, FORWARD, "estimate") is None
        assert Plan1D(16, wisdom=w).kernel_name == "direct"
        assert Plan1D(128, wisdom=w, real=True).kernel_name == "rpacked"

    def test_save_load(self, tmp_path):
        w = WisdomStore()
        w.record(16, BACKWARD, "measure", "direct")
        path = tmp_path / "wisdom.json"
        w.save(path)
        w2 = WisdomStore()
        assert w2.load(path) == 1
        assert len(w2) == 1

    def test_forget(self):
        w = WisdomStore()
        w.record(8, FORWARD, "estimate", "direct")
        w.forget()
        assert len(w) == 0 and w.lookup(8, FORWARD, "estimate") is None


class TestTranspose:
    def test_xyz_to_zxy_values(self):
        x = csig(4, 5, 6)
        out = xyz_to_zxy(x, block=2)
        assert out.shape == (6, 4, 5)
        assert np.array_equal(out, x.transpose(2, 0, 1))

    def test_xyz_to_xzy_values(self):
        x = csig(4, 5, 6)
        out = xyz_to_xzy(x, block=3)
        assert out.shape == (4, 6, 5)
        assert np.array_equal(out, x.transpose(0, 2, 1))

    def test_zxy_roundtrip(self):
        x = csig(7, 3, 5)
        assert np.array_equal(zxy_to_xyz(xyz_to_zxy(x)), x)

    def test_blocking_independent_of_block_size(self):
        x = csig(10, 11, 12)
        a = xyz_to_zxy(x, block=1)
        b = xyz_to_zxy(x, block=64)
        assert np.array_equal(a, b)

    def test_outputs_contiguous(self):
        x = csig(4, 4, 4)
        assert xyz_to_zxy(x).flags.c_contiguous
        assert xyz_to_xzy(x).flags.c_contiguous

    def test_plane_transpose(self):
        x = csig(3, 4, 5)
        out = plane_transpose(x)
        assert out.shape == (3, 5, 4)
        assert np.array_equal(out, x.transpose(0, 2, 1))
        assert out.flags.c_contiguous

    def test_bytes_moved(self):
        assert bytes_moved((2, 3, 4)) == 2 * 24 * 16


class TestRealFFT:
    @pytest.mark.parametrize("n", [2, 4, 6, 16, 48, 100, 256])
    def test_rfft_matches_numpy(self, n):
        x = RNG.standard_normal((3, n))
        assert np.allclose(rfft(x), np.fft.rfft(x), atol=1e-9)

    @pytest.mark.parametrize("n", [4, 16, 48, 128])
    def test_roundtrip(self, n):
        x = RNG.standard_normal((2, n))
        assert np.allclose(irfft(rfft(x)), x, atol=1e-10)

    def test_irfft_matches_numpy(self):
        spec = np.fft.rfft(RNG.standard_normal((2, 32)))
        assert np.allclose(irfft(spec), np.fft.irfft(spec), atol=1e-10)

    def test_odd_length_rejected(self):
        with pytest.raises(PlanError):
            Plan1D(9, FORWARD, real=True)

    def test_wrong_spectrum_length_rejected(self):
        with pytest.raises(PlanError):
            Plan1D(8, BACKWARD, real=True).execute(np.zeros(3, dtype=complex))

    def test_hermitian_output(self):
        # The half spectrum's endpoints must be (numerically) real.
        spec = rfft(RNG.standard_normal(64))
        assert abs(spec[0].imag) < 1e-12
        assert abs(spec[-1].imag) < 1e-12


class TestPlan3DAndOneShots:
    def test_fftn_matches_numpy(self):
        x = csig(4, 6, 8)
        assert np.allclose(fftn(x), np.fft.fftn(x), atol=1e-8)

    def test_ifftn_roundtrip(self):
        x = csig(4, 6, 8)
        assert np.allclose(ifftn(fftn(x)), x, atol=1e-9)

    def test_plan3d_normalize(self):
        x = csig(2, 3, 4)
        plan = Plan3D((2, 3, 4), BACKWARD)
        got = plan.execute(np.fft.fftn(x), normalize=True)
        assert np.allclose(got, x, atol=1e-10)

    def test_plan3d_shape_validation(self):
        with pytest.raises(PlanError):
            Plan3D((2, 3))
        with pytest.raises(PlanError):
            Plan3D((2, 3, 4)).execute(csig(2, 3, 5))

    def test_one_shot_helpers(self):
        x = csig(2, 20)
        assert np.allclose(ifft(fft(x)), x, atol=1e-10)
