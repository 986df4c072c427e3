"""Cached distributed plans: replayed transforms against engine runs.

A plan's first transform runs the engine and keeps its timeline; later
transforms run only the whole-array data path and return that timeline.
The property tests hold a replayed output and timeline to a fresh
engine run bit for bit, in all four directions (c2c forward and
inverse, r2c and its c2r inverse); the other tests pin what a steady call costs (no
engine run, no 1-D planning, one kernel call per axis and no mover
call), what the cache key separates, and when the engine still runs.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import plan as pipeline
from repro.core.api import (
    BREAKDOWN_LABELS,
    parallel_fft3d,
    parallel_ifft3d,
    parallel_irfft3d,
    parallel_rfft3d,
    run_case,
)
from repro.core.decompose import gather_spectrum, scatter_slabs
from repro.core.distplan import DistributedFFT3D, fft3d_plan
from repro.core.params import W_MAX, ProblemShape, TuningParams
from repro.core.realfft3d import ParallelIRFFT3D, ParallelRFFT3D
from repro.errors import ParameterError, SimulationError
from repro.faults import injected_faults
from repro.fft import Flag, clear_plan_cache, planning_effort
from repro.fft.plan import Plan1D
from repro.machine.platforms import get_platform
from repro.obs.registry import MetricsRegistry, scoped_registry
from repro.obs.tracer import Tracer, tracing
from repro.simmpi import run_spmd

PLATFORM = get_platform("UMD-Cluster")
VARIANTS = ("NEW", "NEW-0", "TH", "FFTW")
FAULTS = "straggler:rank=1,slow=1.7;jitter:amp=3e-6;spike:prob=0.2,extra=4e-5;seed:11"


def total(reg, name):
    fam = reg.snapshot().get(name)
    return sum(v for _, v in fam["samples"]) if fam else 0.0


def signal(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture(autouse=True)
def cold_plans():
    clear_plan_cache()
    yield
    clear_plan_cache()


def engine_real(direction, arr, dims, p, params, variant):
    """A fresh engine run of the r2c pipeline (or its c2r inverse) on
    ``arr`` and its gathered output, for the real shape ``dims``."""
    nx, ny, nz = dims
    shape = ProblemShape(nx, ny, nz, p)
    blocks = scatter_slabs(arr, p)
    cls = ParallelRFFT3D if direction == "r2c" else ParallelIRFFT3D

    def prog(ctx):
        plan = cls(ctx, shape, params, variant)
        out = yield from plan.steps(blocks[ctx.rank])
        return out, plan.output_layout

    sim = run_spmd(p, prog, PLATFORM)
    outs = [out for out, _ in sim.results]
    out_shape = (nx, ny, nz // 2 + 1) if direction == "r2c" else dims
    return gather_spectrum(outs, out_shape, sim.results[0][1]), sim


def direction_input(direction, dims, seed):
    """Seeded input for a direction: complex for c2c, real for r2c, and
    for c2r a half spectrum whose kz = 0 and Nyquist planes are not
    Hermitian (their imaginary parts must be ignored)."""
    arr = signal(dims, seed)
    if direction == "r2c":
        return arr.real
    if direction == "c2r":
        return np.ascontiguousarray(arr[:, :, : dims[2] // 2 + 1])
    return arr


def feasible_params(draw, direction, dims, p):
    """Parameters drawn feasible for the shape the pipeline exchanges."""
    nx, ny, nz = dims
    xnz = nz // 2 + 1 if direction in ("r2c", "c2r") else nz
    xshape = ProblemShape(nx, ny, xnz, p)
    t = draw(st.integers(1, xnz))
    f = st.integers(0, xshape.f_max)
    return TuningParams(
        T=t, W=draw(st.integers(1, W_MAX)),
        Px=draw(st.integers(1, xshape.nxl_max)), Pz=draw(st.integers(1, t)),
        Uy=draw(st.integers(1, xshape.nyl_max)), Uz=draw(st.integers(1, t)),
        Fy=draw(f), Fp=draw(f), Fu=draw(f), Fx=draw(f),
    )


@st.composite
def cases(draw):
    """A direction, a shape (uneven slabs, and Nx == Ny for the fast
    transpose), p, a variant, feasible parameters and an optional
    seeded fault spec."""
    p = draw(st.integers(2, 8))
    direction = draw(st.sampled_from(("forward", "inverse", "r2c", "c2r")))
    nx = draw(st.integers(p, 2 * p + 3))
    ny = nx if draw(st.booleans()) else draw(st.integers(p, 2 * p + 3))
    real = direction in ("r2c", "c2r")
    nz = 2 * draw(st.integers(1, 5)) if real else draw(st.integers(1, 10))
    dims = (nx, ny, nz)
    return (direction, dims, p, draw(st.sampled_from(VARIANTS)),
            feasible_params(draw, direction, dims, p),
            draw(st.sampled_from((None, FAULTS))), draw(st.integers(0, 2**32 - 1)))


#: (c2c shape, r2c/c2r shape, p): Bluestein-only sizes (67, 97 and, for
#: the real z half-length, 67) on each axis, and a slab whose kernel
#: batches pass the row blocking of Plan1D.execute and the BLAS gemm
#: blocking
LARGE = [
    ((67, 12, 10), (67, 12, 10), 4),
    ((12, 97, 9), (12, 97, 8), 3),
    ((8, 6, 67), (8, 6, 134), 2),
    ((97, 97, 16), (97, 97, 16), 8),
    ((96, 96, 96), (96, 96, 96), 8),
]


@st.composite
def large_cases(draw, direction, dims, p):
    """A variant, feasible parameters and an optional seeded fault spec
    for one of the :data:`LARGE` shapes."""
    return (direction, dims, p, draw(st.sampled_from(VARIANTS)),
            feasible_params(draw, direction, dims, p),
            draw(st.sampled_from((None, FAULTS))), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_replay_equals_a_fresh_engine_run(case):
    check_replay_against_engine(case)


@pytest.mark.parametrize("direction", ["forward", "inverse", "r2c", "c2r"])
@pytest.mark.parametrize("c2c,r2c,p", LARGE, ids=[
    "x".join(map(str, c2c)) + f"-p{p}" for c2c, _, p in LARGE])
@settings(max_examples=2, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_replay_equals_a_fresh_engine_run_on_bluestein_and_large_batches(
        direction, c2c, r2c, p, data):
    dims = c2c if direction in ("forward", "inverse") else r2c
    check_replay_against_engine(data.draw(large_cases(direction, dims, p)))


def check_replay_against_engine(case):
    """A replayed transform equals a fresh engine run bit for bit, comes
    back C-contiguous, and owns its buffer: two consecutive replays
    share no memory with each other."""
    direction, dims, p, variant, params, faults, seed = case
    arr = direction_input(direction, dims, seed)
    calls = {
        "forward": lambda a: parallel_fft3d(a, p, PLATFORM, params, variant),
        "inverse": lambda a: parallel_ifft3d(a, p, PLATFORM, params, variant),
        "r2c": lambda a: parallel_rfft3d(a, p, PLATFORM, params, variant),
        "c2r": lambda a: parallel_irfft3d(a, p, PLATFORM, params, variant),
    }
    with injected_faults(faults):
        calls[direction](direction_input(direction, dims, seed + 1))  # builds the plan
        with scoped_registry(MetricsRegistry()) as reg:
            out, res = calls[direction](arr)
            again, _ = calls[direction](arr)
            assert total(reg, "fft3d_replays_total") == 2
            assert total(reg, "sim_runs_total") == 0
        assert out.flags.c_contiguous
        assert not np.shares_memory(out, again)
        assert out.tobytes() == again.tobytes()
        if direction in ("r2c", "c2r"):
            ref, sim = engine_real(direction, arr, dims, p, params, variant)
        else:
            src = np.conj(arr) if direction == "inverse" else arr
            ref_res, ref = run_case(variant, PLATFORM, ProblemShape(*dims, p),
                                    params, global_array=src)
            if direction == "inverse":
                ref = np.conj(ref) / arr.size
            sim = ref_res.sim
    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
    if direction == "c2r":
        oracle = np.fft.irfftn(arr, s=dims, axes=(0, 1, 2))
        assert np.max(np.abs(out - oracle)) <= 1e-12 * max(1.0, np.abs(oracle).max())
    kept = res.sim
    assert kept.elapsed == sim.elapsed
    assert kept.breakdown(BREAKDOWN_LABELS) == sim.breakdown(BREAKDOWN_LABELS)
    assert kept.stats == sim.stats
    assert kept.faults == sim.faults


class TestSteadyCalls:
    def test_second_call_replays_on_the_data_path_alone(self, monkeypatch):
        shape, p = (16, 12, 10), 4
        parallel_fft3d(signal(shape), p, PLATFORM)
        calls = {"fft": 0, "ffty_pack": 0, "unpack_fftx": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # The movers are counted where the engine's data path looks
        # them up; the whole-array replay calls neither.
        monkeypatch.setattr(Plan1D, "execute", counted("fft", Plan1D.execute))
        monkeypatch.setattr(pipeline, "ffty_pack_real",
                            counted("ffty_pack", pipeline.ffty_pack_real))
        monkeypatch.setattr(pipeline, "unpack_fftx_real",
                            counted("unpack_fftx", pipeline.unpack_fftx_real))
        x = signal(shape, 1)
        with scoped_registry(MetricsRegistry()) as reg:
            spectrum, result = parallel_fft3d(x, p, PLATFORM)
            assert total(reg, "sim_runs_total") == 0
            assert total(reg, "fft_plans_built_total") == 0
            assert total(reg, "fft_wisdom_hits_total") == 0
            assert total(reg, "fft3d_plans_built_total") == 0
            assert total(reg, "fft3d_replays_total") == 1
        assert calls == {"fft": 3, "ffty_pack": 0, "unpack_fftx": 0}
        assert np.max(np.abs(spectrum - np.fft.fftn(x))) <= 1e-11
        assert result.elapsed > 0

    def test_c2r_replays_on_three_kernel_calls(self, monkeypatch):
        shape, p = (16, 12, 10), 4
        x = signal(shape).real
        half, _ = parallel_rfft3d(x, p, PLATFORM)
        parallel_irfft3d(half, p, PLATFORM)
        calls = []
        execute = Plan1D.execute

        def counted(self, *args, **kwargs):
            calls.append((self.n, self.real, self.sign))
            return execute(self, *args, **kwargs)

        monkeypatch.setattr(Plan1D, "execute", counted)
        for name in ("ffty_pack_real", "unpack_fftx_real"):
            monkeypatch.setattr(pipeline, name, None)  # the replay calls neither
        with scoped_registry(MetricsRegistry()) as reg:
            back, result = parallel_irfft3d(half, p, PLATFORM)
            assert total(reg, "sim_runs_total") == 0
            assert total(reg, "fft_plans_built_total") == 0
            assert total(reg, "fft3d_replays_total") == 1
        # FFTy and FFTx backward, then the c2r on z
        assert calls == [(12, False, 1), (16, False, 1), (10, True, 1)]
        assert np.max(np.abs(back - x)) <= 1e-13
        assert result.elapsed > 0

    def test_r2c_and_c2r_share_one_plan_with_a_timeline_each(self):
        x = signal((8, 8, 8)).real
        with scoped_registry(MetricsRegistry()) as reg:
            half, fwd = parallel_rfft3d(x, 2, PLATFORM)
            back, inv = parallel_irfft3d(half, 2, PLATFORM)
            assert total(reg, "fft3d_plans_built_total") == 1
            assert total(reg, "sim_runs_total") == 2
        plan = fft3d_plan(ProblemShape(8, 8, 8, 2), PLATFORM, real=True)
        assert fwd.breakdown == plan.kept_breakdown(fwd.sim)
        assert inv.breakdown == plan.kept_breakdown(inv.sim)
        assert inv.sim is not fwd.sim
        assert inv.breakdown["FFTz"] > 0 and inv.elapsed != fwd.elapsed
        assert np.max(np.abs(back - x)) <= 1e-13

    def test_a_spectrum_outlives_later_replays(self):
        # replays keep their intermediates in reused per-thread work
        # arrays; the spectra they return must not live there
        shape, p = (12, 10, 8), 2
        for call, x, y in ((parallel_fft3d, signal(shape, 1), signal(shape, 2)),
                           (parallel_rfft3d, signal(shape, 1).real, signal(shape, 2).real),
                           (parallel_irfft3d, signal((12, 10, 5), 1),
                            signal((12, 10, 5), 2))):
            call(x, p, PLATFORM)
            first, _ = call(x, p, PLATFORM)
            kept = first.copy()
            second, _ = call(y, p, PLATFORM)
            assert first.tobytes() == kept.tobytes()
            assert not np.shares_memory(first, second)

    def test_kept_breakdown_is_averaged_once_and_copied(self, monkeypatch):
        x = signal((12, 10, 8))
        _, first = parallel_fft3d(x, 4, PLATFORM)
        plan = fft3d_plan(ProblemShape(12, 10, 8, 4), PLATFORM)
        assert first.breakdown == first.sim.breakdown(BREAKDOWN_LABELS)
        averaged = []
        monkeypatch.setattr(type(first.sim), "breakdown",
                            lambda sim, labels=None: averaged.append(sim) or {})
        _, steady = parallel_fft3d(x, 4, PLATFORM)
        assert averaged == []
        assert steady.breakdown == first.breakdown
        steady.breakdown["FFTz"] = -1.0
        assert plan.kept_breakdown(first.sim)["FFTz"] == first.breakdown["FFTz"] > 0

    def test_first_call_runs_the_engine_once_and_keeps_no_payloads(self):
        x = signal((12, 12, 8))
        with scoped_registry(MetricsRegistry()) as reg:
            spectrum, result = parallel_fft3d(x, 3, PLATFORM)
            assert total(reg, "sim_runs_total") == 1
            assert total(reg, "fft3d_plans_built_total") == 1
            assert total(reg, "fft3d_replays_total") == 0
        assert np.max(np.abs(spectrum - np.fft.fftn(x))) <= 1e-11
        assert result.sim.results == [None] * 3

    def test_forward_and_inverse_share_one_plan(self):
        x = signal((8, 8, 8))
        with scoped_registry(MetricsRegistry()) as reg:
            spectrum, fwd = parallel_fft3d(x, 2, PLATFORM)
            back, inv = parallel_ifft3d(spectrum, 2, PLATFORM)
            assert total(reg, "fft3d_plans_built_total") == 1
            assert total(reg, "sim_runs_total") == 1
        assert np.max(np.abs(back - x)) <= 1e-12
        assert inv.sim is fwd.sim

    def test_concurrent_first_calls_run_the_engine_once(self):
        # More threads than cores, switching often: a lost update in the
        # cache or a second first-execute would show in the counters.
        x = signal((12, 10, 8))
        ref = np.fft.fftn(x)
        errors = []
        reg = MetricsRegistry()
        n = 6
        start = threading.Barrier(n, timeout=30)

        def call():
            with scoped_registry(reg):  # registry scopes are per thread
                start.wait()
                spectrum, _ = parallel_fft3d(x, 4, PLATFORM)
            errors.append(np.max(np.abs(spectrum - ref)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(errors) == n and max(errors) <= 1e-11
        assert total(reg, "sim_runs_total") == 1
        assert total(reg, "fft3d_plans_built_total") == 1
        assert total(reg, "fft3d_replays_total") == n - 1


class TestCacheKey:
    SHAPE = ProblemShape(12, 12, 8, 4)

    def plans_built(self, fn):
        with scoped_registry(MetricsRegistry()) as reg:
            fn()
            return total(reg, "fft3d_plans_built_total"), total(reg, "sim_runs_total")

    def test_same_arguments_share_a_plan(self):
        a = fft3d_plan(self.SHAPE, PLATFORM)
        assert fft3d_plan(self.SHAPE, PLATFORM, variant="new") is a
        # the baseline, given explicitly, is the same effective point
        assert fft3d_plan(self.SHAPE, PLATFORM, a.params) is a

    def test_keys_do_not_alias(self):
        x = signal((12, 12, 8))
        base = fft3d_plan(self.SHAPE, PLATFORM)
        parallel_fft3d(x, 4, PLATFORM)
        other = base.params.replace(T=base.params.T + 1)
        variants = [
            lambda: parallel_fft3d(x, 4, PLATFORM, other),
            lambda: parallel_fft3d(x, 4, get_platform("Hopper")),
            lambda: parallel_fft3d(x, 4, PLATFORM, variant="TH"),
        ]
        for seed in (1, 2):
            def faulted(seed=seed):
                with injected_faults(f"jitter:amp=1e-6;seed:{seed}"):
                    parallel_fft3d(x, 4, PLATFORM)
            variants.append(faulted)

        def patient():
            with planning_effort(Flag.MEASURE):
                parallel_fft3d(x, 4, PLATFORM)
        variants.append(patient)
        for fn in variants:
            assert self.plans_built(fn) == (1, 1)
            assert self.plans_built(fn) == (0, 0)  # and then it is held

    def test_c2c_and_r2c_plans_are_distinct(self):
        x = signal((12, 12, 8)).real
        parallel_fft3d(x, 4, PLATFORM)
        assert self.plans_built(lambda: parallel_rfft3d(x, 4, PLATFORM)) == (1, 1)

    def test_rank_span_tracer_forces_an_engine_run(self):
        x = signal((12, 12, 8))
        parallel_fft3d(x, 4, PLATFORM)
        with scoped_registry(MetricsRegistry()) as reg:
            with tracing(Tracer(rank_spans=True)) as tr:
                spectrum, result = parallel_fft3d(x, 4, PLATFORM)
            assert total(reg, "sim_runs_total") == 1
            assert total(reg, "fft3d_replays_total") == 0
        assert any(s.name == "Wait" for s in tr.spans)
        assert all(tr_.events for tr_ in result.sim.traces)
        assert np.max(np.abs(spectrum - np.fft.fftn(x))) <= 1e-11

    def test_clear_plan_cache_makes_the_next_call_cold(self):
        x = signal((12, 12, 8))
        parallel_fft3d(x, 4, PLATFORM)
        clear_plan_cache()
        with scoped_registry(MetricsRegistry()) as reg:
            parallel_fft3d(x, 4, PLATFORM)
            assert total(reg, "sim_runs_total") == 1
            assert total(reg, "fft3d_plans_built_total") == 1
            assert total(reg, "fft_plans_built_total") + total(
                reg, "fft_wisdom_hits_total") > 0


class TestCrossCheck:
    @pytest.fixture
    def off_by_one_ulp(self, monkeypatch):
        """The whole-array replay, with one ulp flipped in its spectrum."""
        replay = DistributedFFT3D._replay

        def flipped(self, arr):
            spectrum = replay(self, arr)
            last = spectrum.flat[-1]
            spectrum.flat[-1] = complex(np.nextafter(last.real, np.inf), last.imag)
            return spectrum

        monkeypatch.setattr(DistributedFFT3D, "_replay", flipped)

    def test_a_replay_that_disagrees_with_the_engine_raises(self, off_by_one_ulp):
        with pytest.raises(SimulationError, match="replayed output differs"):
            parallel_fft3d(signal((9, 7, 8)), 2, PLATFORM)

    def test_an_r2c_replay_that_disagrees_with_the_engine_raises(self, off_by_one_ulp):
        with pytest.raises(SimulationError, match="replayed output differs"):
            parallel_rfft3d(signal((9, 7, 8)).real, 2, PLATFORM)

    def test_r2c_rejects_complex_input(self):
        x = np.ones((8, 8, 8)) + 1j
        with scoped_registry(MetricsRegistry()) as reg:
            with pytest.raises(ParameterError, match="real input"):
                parallel_rfft3d(x, 2, PLATFORM)
            # rejected before planning: no plan built, none evicted
            assert total(reg, "fft3d_plans_built_total") == 0
        plan = fft3d_plan(ProblemShape(8, 8, 8, 2), PLATFORM, real=True)
        with pytest.raises(ParameterError, match="real input"):
            plan.forward(x)

    def test_r2c_rejects_odd_nz_on_every_call(self):
        # the key derivation is memoized; a failure must not be
        for _ in range(2):
            with pytest.raises(ParameterError, match="even Nz"):
                parallel_rfft3d(np.ones((8, 8, 7)), 2, PLATFORM)

    def test_a_c2r_replay_that_disagrees_with_the_engine_raises(self, monkeypatch):
        replay = DistributedFFT3D._replay_c2r

        def flipped(self, half):
            out = replay(self, half)
            out.flat[-1] = np.nextafter(out.flat[-1], np.inf)
            return out

        monkeypatch.setattr(DistributedFFT3D, "_replay_c2r", flipped)
        with pytest.raises(SimulationError, match="replayed output differs"):
            parallel_irfft3d(signal((9, 7, 5)), 2, PLATFORM)

    def test_c2r_rejects_a_half_spectrum_of_the_wrong_shape(self):
        plan = fft3d_plan(ProblemShape(8, 8, 8, 2), PLATFORM, real=True)
        with pytest.raises(ParameterError, match="half spectrum shape"):
            plan.backward(np.zeros((8, 8, 8), dtype=complex))
