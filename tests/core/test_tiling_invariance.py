"""The tuning parameters never change the spectrum's bits.

``T, W, Px, Pz, Uy, Uz`` and the ``F*`` test frequencies decide how the
pipeline batches and schedules its work, and the cost model charges
that; the data path transforms whole tiles with batch-independent
kernels, so every feasible configuration of NEW, TH and the FFTW
baseline must produce the same spectrum bit for bit.  Shapes include prime and <= 8
y-extents, where single-row sub-tiles once took a different BLAS path.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import parallel_fft3d
from repro.core.params import ProblemShape, TuningParams
from repro.machine.platforms import get_platform

PLATFORM = get_platform("UMD-Cluster")
Y_EXTENTS = (2, 3, 4, 5, 6, 7, 8, 11, 13)


@st.composite
def problems(draw):
    p = draw(st.integers(1, 8))
    ny = draw(st.sampled_from([n for n in Y_EXTENTS if n >= p]))
    nx = draw(st.integers(p, 12))
    nz = draw(st.integers(1, 9))
    return ProblemShape(nx, ny, nz, p)


@st.composite
def tunings(draw, shape):
    t = draw(st.integers(1, shape.nz))
    f = st.integers(0, 4)
    return TuningParams(
        T=t, W=draw(st.integers(1, 8)),
        Px=draw(st.integers(1, shape.nxl_max)), Pz=draw(st.integers(1, t)),
        Uy=draw(st.integers(1, shape.nyl_max)), Uz=draw(st.integers(1, t)),
        Fy=draw(f), Fp=draw(f), Fu=draw(f), Fx=draw(f),
    )


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_spectrum_bitwise_invariant_to_tuning(data):
    shape = data.draw(problems(), label="shape")
    rng = np.random.default_rng(shape.nx * 1000 + shape.ny * 10 + shape.nz)
    dims = (shape.nx, shape.ny, shape.nz)
    arr = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    ref, _ = parallel_fft3d(arr, shape.p, PLATFORM,
                            TuningParams(1, 1, 1, 1, 1, 1, 0, 0, 0, 0), "NEW")
    assert np.allclose(ref, np.fft.fftn(arr), atol=1e-10)
    for variant in ("NEW", "TH", "FFTW"):
        params = data.draw(tunings(shape), label=variant)
        got, _ = parallel_fft3d(arr, shape.p, PLATFORM, params, variant)
        assert np.array_equal(got, ref), (variant, params)
