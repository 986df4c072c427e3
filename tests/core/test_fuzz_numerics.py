"""Property-based fuzzing: every distributed transform flavor must agree
with numpy for arbitrary shapes, rank counts, and decompositions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProblemShape, fft3d_plan, parallel_fft3d, parallel_rfft3d
from repro.core.multiarray import run_multi_array
from repro.core.pencil import GridShape
from repro.machine import UMD_CLUSTER

RNG = np.random.default_rng(99)


def csig(nx, ny, nz):
    return RNG.standard_normal((nx, ny, nz)) + 1j * RNG.standard_normal(
        (nx, ny, nz)
    )


@given(
    st.integers(2, 12),  # nx
    st.integers(2, 12),  # ny
    st.integers(1, 12),  # nz
    st.integers(1, 6),   # p
)
@settings(max_examples=20, deadline=None)
def test_slab_pipeline_fuzz(nx, ny, nz, p):
    if p > min(nx, ny):
        return
    a = csig(nx, ny, nz)
    spec, _ = parallel_fft3d(a, p, UMD_CLUSTER)
    assert np.allclose(spec, np.fft.fftn(a), atol=1e-8)


@given(
    st.integers(2, 10),
    st.integers(2, 10),
    st.integers(2, 10),
    st.sampled_from([(1, 2), (2, 2), (2, 3), (1, 4), (3, 1)]),
)
@settings(max_examples=15, deadline=None)
def test_pencil_pipeline_fuzz(nx, ny, nz, grid):
    pr, pc = grid
    if pr > min(nx, ny) or pc > min(ny, nz):
        return
    a = csig(nx, ny, nz)
    plan = fft3d_plan(GridShape(nx, ny, nz, pr * pc), UMD_CLUSTER, grid=grid)
    spec, _ = plan.forward(a)
    assert np.allclose(spec, np.fft.fftn(a), atol=1e-8)


@given(
    st.integers(2, 10),
    st.integers(2, 10),
    st.sampled_from([2, 4, 6, 8]),  # even nz
    st.integers(1, 4),
)
@settings(max_examples=15, deadline=None)
def test_rfft_pipeline_fuzz(nx, ny, nz, p):
    if p > min(nx, ny):
        return
    a = RNG.standard_normal((nx, ny, nz))
    spec, _ = parallel_rfft3d(a, p, UMD_CLUSTER)
    assert np.allclose(spec, np.fft.rfftn(a), atol=1e-8)


@given(
    st.sampled_from(["sequential", "inter", "intra", "both"]),
    st.integers(1, 3),  # arrays
    st.integers(1, 3),  # p
)
@settings(max_examples=12, deadline=None)
def test_multiarray_fuzz(mode, m, p):
    n = 6
    shape = ProblemShape(n, n, n, p)
    globs = [csig(n, n, n) for _ in range(m)]
    _, spectra = run_multi_array(
        UMD_CLUSTER, shape, m, mode, global_arrays=globs
    )
    for a in range(m):
        assert np.allclose(spectra[a], np.fft.fftn(globs[a]), atol=1e-8)
