"""Real-payload runs against virtual ones, and the movers' call counts.

A real-payload run moves numpy data the virtual run does not, but the
data path costs no virtual time: both must take the same scheduling
decisions and charge the same seconds, bit for bit — for the slab
pipeline and for every mode of the multi-array executor (a virtual run
on uniform slabs steps one rank, so its scheduler counts are compared
with the p-rank run's).  The data path
itself runs once per rank and array on the whole slab (one FFTy+Pack
and one Unpack+FFTx, whatever the tiling), which the call-count tests
pin.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import plan as pipeline
from repro.core.api import run_case
from repro.core.multiarray import MODES, run_multi_array
from repro.core.params import W_MAX, ProblemShape, TuningParams
from repro.core.variants import get_variant
from repro.fft.plan import Plan1D
from repro.machine.platforms import get_platform

from .test_symmetric import virtual_run

PLATFORM = get_platform("UMD-Cluster")
VARIANTS = ("NEW", "NEW-0", "TH", "TH-0", "FFTW")


@st.composite
def cells(draw):
    """A shape (x and y extents need not divide by p), p, a variant and
    a tiling.  Variants without overlap have no feasibility check, so
    their tile height may exceed Nz (one short tile)."""
    p = draw(st.integers(1, 5))
    nx = draw(st.integers(p, 3 * p + 2))
    ny = draw(st.integers(p, 3 * p + 2))
    nz = draw(st.integers(1, 12))
    shape = ProblemShape(nx, ny, nz, p)
    variant = draw(st.sampled_from(VARIANTS))
    overlap = get_variant(variant).overlap
    t = draw(st.integers(1, nz if overlap else nz + 3))
    f = st.integers(0, shape.f_max)
    params = TuningParams(
        T=t, W=draw(st.integers(1, W_MAX)),
        Px=draw(st.integers(1, shape.nxl_max)), Pz=draw(st.integers(1, t)),
        Uy=draw(st.integers(1, shape.nyl_max)), Uz=draw(st.integers(1, t)),
        Fy=draw(f), Fp=draw(f), Fu=draw(f), Fx=draw(f),
    )
    return shape, variant, params, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=45, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cells())
def test_real_payload_run_times_like_the_virtual_run(cell):
    shape, variant, params, seed = cell
    rng = np.random.default_rng(seed)
    dims = (shape.nx, shape.ny, shape.nz)
    arr = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    virt, _ = run_case(variant, PLATFORM, shape, params, record_events=True)
    real, spectrum = run_case(variant, PLATFORM, shape, params,
                              global_array=arr, record_events=True)
    assert real.sim.elapsed == virt.sim.elapsed
    # a virtual run on uniform slabs steps one rank for all p, so the
    # scheduler counts to match are the p-rank virtual run's
    full = virtual_run(variant, PLATFORM, shape, params, symmetric=False)
    assert real.sim.stats == full.stats
    for tv, tr in zip(virt.sim.traces, real.sim.traces, strict=True):
        assert tr.by_label == tv.by_label
        # every event's (t0, t1, label): the rank's clock at every step
        assert tr.events == tv.events
    assert np.max(np.abs(spectrum - np.fft.fftn(arr))) <= 1e-11


@st.composite
def multi_cells(draw):
    """A multi-array mode and array count, a shape (x and y extents need
    not divide by p), p, and the default parameters or a tiling NEW can
    run (the intra and both modes plan every array with NEW)."""
    p = draw(st.integers(1, 5))
    nx = draw(st.integers(p, 3 * p + 2))
    ny = draw(st.integers(p, 3 * p + 2))
    nz = draw(st.integers(1, 10))
    shape = ProblemShape(nx, ny, nz, p)
    params = None
    if draw(st.booleans()):
        t = draw(st.integers(1, nz))
        f = st.integers(0, shape.f_max)
        params = TuningParams(
            T=t, W=draw(st.integers(1, W_MAX)),
            Px=draw(st.integers(1, shape.nxl_max)), Pz=draw(st.integers(1, t)),
            Uy=draw(st.integers(1, shape.nyl_max)), Uz=draw(st.integers(1, t)),
            Fy=draw(f), Fp=draw(f), Fu=draw(f), Fx=draw(f),
        )
    mode = draw(st.sampled_from(MODES))
    return shape, mode, draw(st.integers(1, 3)), params, draw(
        st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(multi_cells())
def test_real_multi_array_run_times_like_the_virtual_run(cell):
    shape, mode, n_arrays, params, seed = cell
    rng = np.random.default_rng(seed)
    dims = (shape.nx, shape.ny, shape.nz)
    arrays = [rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
              for _ in range(n_arrays)]
    virt, _ = run_multi_array(PLATFORM, shape, n_arrays, mode, params)
    real, spectra = run_multi_array(PLATFORM, shape, n_arrays, mode, params,
                                    global_arrays=arrays)
    assert real.elapsed == virt.elapsed
    assert real.stats == virt.stats
    assert [t.by_label for t in real.traces] == [t.by_label for t in virt.traces]
    for arr, spectrum in zip(arrays, spectra, strict=True):
        assert np.max(np.abs(spectrum - np.fft.fftn(arr))) <= 1e-11
        # the slab pipeline's spectrum, bit for bit
        _, slab = run_case("NEW", PLATFORM, shape, params, global_array=arr)
        assert spectrum.tobytes() == slab.tobytes()


TILINGS = [
    ("NEW", (16, 16, 16), 4, 2),
    ("NEW", (12, 10, 9), 2, 3),
    ("NEW", (12, 10, 9), 9, 1),
    ("TH", (12, 12, 10), 3, 4),
    ("NEW-0", (10, 7, 12), 1, 1),
    ("FFTW", (9, 6, 14), 2, 1),
]


def count_data_path_calls(monkeypatch) -> dict[str, int]:
    """Count ``Plan1D.execute`` and mover calls (the movers patched
    where :class:`~repro.core.plan.SlabDataPath` looks them up)."""
    calls = {"fft": 0, "ffty_pack": 0, "unpack_fftx": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Plan1D, "execute", counted("fft", Plan1D.execute))
    monkeypatch.setattr(pipeline, "ffty_pack_real",
                        counted("ffty_pack", pipeline.ffty_pack_real))
    monkeypatch.setattr(pipeline, "unpack_fftx_real",
                        counted("unpack_fftx", pipeline.unpack_fftx_real))
    return calls


def tiling_params(T, W):
    return TuningParams(T=T, W=W, Px=1, Pz=1, Uy=1, Uz=1,
                        Fy=1, Fp=1, Fu=1, Fx=1)


@pytest.mark.parametrize("variant,shape,T,W", TILINGS)
def test_one_mover_call_per_rank_whatever_the_tiling(monkeypatch, variant, shape, T, W):
    p = 3
    calls = count_data_path_calls(monkeypatch)
    prob = ProblemShape(*shape, p)
    arr = np.random.default_rng(7).standard_normal(shape) + 0j
    result, spectrum = run_case(variant, PLATFORM, prob, tiling_params(T, W),
                                global_array=arr)
    assert np.max(np.abs(spectrum - np.fft.fftn(arr))) <= 1e-11
    # FFTz, FFTy and FFTx: one kernel call each per rank
    assert calls == {"fft": 3 * p, "ffty_pack": p, "unpack_fftx": p}


@pytest.mark.parametrize("n_arrays", [1, 2, 3])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("variant,shape,T,W", TILINGS)
def test_one_mover_call_per_rank_and_array_in_every_multi_array_mode(
        monkeypatch, variant, shape, T, W, mode, n_arrays):
    del variant  # the mode picks the variant; only the tiling is shared
    p = 3
    calls = count_data_path_calls(monkeypatch)
    prob = ProblemShape(*shape, p)
    rng = np.random.default_rng(7)
    arrays = [rng.standard_normal(shape) + 0j for _ in range(n_arrays)]
    _, spectra = run_multi_array(PLATFORM, prob, n_arrays, mode,
                                 tiling_params(T, W), global_arrays=arrays)
    for arr, spectrum in zip(arrays, spectra, strict=True):
        assert np.max(np.abs(spectrum - np.fft.fftn(arr))) <= 1e-11
    # FFTz, FFTy and FFTx: one kernel call each per rank and array
    m = n_arrays * p
    assert calls == {"fft": 3 * m, "ffty_pack": m, "unpack_fftx": m}
