"""Property test for grid plans: ``DistributedFFT3D`` on a pencil grid.

Shapes include uneven splits, grids include the degenerate ``(p, 1)``
and ``(1, p)``, and ``p`` may exceed an axis's extent (16 ranks on 8^3
over 4 x 4).  Each plan is built fresh (not through the process cache),
so its first forward is an engine run.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.distplan import DistributedFFT3D
from repro.core.params import TuningParams
from repro.core.pencil import GridShape, PencilFFT3D
from repro.core.plan import BREAKDOWN_LABELS
from repro.errors import ParameterError
from repro.machine import UMD_CLUSTER
from repro.obs.registry import scoped_registry
from repro.simmpi import run_spmd


def virtual_pencil(ctx, shape, grid):
    yield from PencilFFT3D(ctx, shape, grid).steps(None)


@st.composite
def grid_cases(draw):
    pr = draw(st.integers(1, 4))
    pc = draw(st.integers(1, 4))
    nx = draw(st.integers(pr, 10))
    ny = draw(st.integers(max(pr, pc), 10))
    nz = draw(st.integers(pc, 10))
    return (nx, ny, nz), (pr, pc)


@given(grid_cases(), st.integers(0, 2**32 - 1))
@example(((8, 8, 8), (4, 4)), 1)
@example(((12, 10, 9), (6, 1)), 2)
@example(((9, 7, 6), (1, 6)), 3)
@settings(max_examples=20, deadline=None)
def test_grid_plan_properties(case, seed):
    (nx, ny, nz), (pr, pc) = case
    p = pr * pc
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((nx, ny, nz)) + 1j * rng.standard_normal((nx, ny, nz))
    plan = DistributedFFT3D(GridShape(nx, ny, nz, p), UMD_CLUSTER, grid=(pr, pc))

    first, kept = plan.forward(a)
    np.testing.assert_allclose(first, np.fft.fftn(a), atol=1e-9)
    with scoped_registry() as reg:
        replayed, again = plan.forward(a)
    assert reg.total("fft3d_replays_total") == 1
    assert reg.total("sim_runs_total") == 0
    # the engine run's gathered spectrum is the replay's, bit for bit
    assert first.tobytes() == replayed.tobytes()
    assert again is kept

    virt = run_spmd(p, virtual_pencil, UMD_CLUSTER, (nx, ny, nz), (pr, pc))
    assert kept.elapsed == virt.elapsed
    assert kept.breakdown() == virt.breakdown()
    assert plan.kept_breakdown(kept) == virt.breakdown(BREAKDOWN_LABELS)
    assert kept.stats == virt.stats

    back, _ = plan.backward(first)
    np.testing.assert_allclose(back, np.fft.ifftn(first), atol=1e-12)
    np.testing.assert_allclose(back, a, atol=1e-9)


@pytest.mark.parametrize("kw", [
    {"real": True},
    {"params": TuningParams(1, 1, 1, 1, 1, 1, 1, 1, 1, 1)},
])
def test_grid_plan_is_c2c_with_a_fixed_schedule(kw):
    with pytest.raises(ParameterError, match="grid plan"):
        DistributedFFT3D(GridShape(8, 8, 8, 4), UMD_CLUSTER, grid=(2, 2), **kw)


def test_the_grid_is_part_of_the_plan_key():
    from repro.core.distplan import fft3d_plan
    from repro.core.params import ProblemShape

    shape = ProblemShape(8, 8, 8, 4)
    grid = fft3d_plan(shape, UMD_CLUSTER, grid=(2, 2))
    assert fft3d_plan(shape, UMD_CLUSTER, grid=(2, 2)) is grid
    assert fft3d_plan(shape, UMD_CLUSTER, grid=(4, 1)) is not grid
    assert fft3d_plan(shape, UMD_CLUSTER) is not grid
    assert fft3d_plan(shape, UMD_CLUSTER).grid is None
