"""Rank-symmetric virtual runs against the p-rank engine run.

A fault-free virtual slab run on uniform slabs steps rank 0 alone and
stands it for every rank (``Engine(symmetric=True)``, decided by
:func:`repro.core.api.run_case`).  On every such case it must give the
p-rank run's makespan, every rank's per-step seconds and every rank's
event timeline, bit for bit.  Every other run stays on the p-rank path
and leaves ``sim_symmetric_runs_total`` where it was.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import api
from repro.core.distplan import fft3d_plan
from repro.core.multiarray import run_multi_array
from repro.core.params import W_MAX, ProblemShape, TuningParams
from repro.core.pencil import GridShape
from repro.core.variants import VARIANTS, baseline_params, get_variant
from repro.faults import injected_faults
from repro.machine.platforms import get_platform
from repro.obs.registry import scoped_registry
from repro.simmpi import run_spmd

PLATFORMS = ("UMD-Cluster", "Hopper")
COUNTER = "sim_symmetric_runs_total"


def virtual_run(variant, platform, shape, params, symmetric):
    """The engine run :func:`run_case` makes for a virtual case, with
    the symmetry argument forced."""
    spec = get_variant(variant)
    if params is None:
        params = baseline_params(spec, shape)
    return run_spmd(shape.p, api._spmd_fft, platform,
                    shape, params, spec, True, None,
                    record_events=True, symmetric=symmetric)


@st.composite
def uniform_cells(draw):
    """A shape whose x and y extents divide by p, a platform, a variant
    and, for half the draws, a feasible tiling (the variant's baseline
    otherwise)."""
    p = draw(st.integers(2, 64))
    kx = draw(st.integers(1, 2 if p > 16 else 4))
    ky = draw(st.integers(1, 2 if p > 16 else 4))
    nz = draw(st.integers(1, 8 if p > 16 else 12))
    shape = ProblemShape(p * kx, p * ky, nz, p)
    variant = draw(st.sampled_from(sorted(VARIANTS)))
    params = None
    if draw(st.booleans()):
        overlap = get_variant(variant).overlap
        t = draw(st.integers(1, nz if overlap else nz + 3))
        f = st.integers(0, shape.f_max)
        params = TuningParams(
            T=t, W=draw(st.integers(1, W_MAX)),
            Px=draw(st.integers(1, shape.nxl_max)), Pz=draw(st.integers(1, t)),
            Uy=draw(st.integers(1, shape.nyl_max)), Uz=draw(st.integers(1, t)),
            Fy=draw(f), Fp=draw(f), Fu=draw(f), Fx=draw(f),
        )
    return get_platform(draw(st.sampled_from(PLATFORMS))), shape, variant, params


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(uniform_cells())
def test_symmetric_run_matches_p_rank_run(cell):
    platform, shape, variant, params = cell
    full = virtual_run(variant, platform, shape, params, symmetric=False)
    with scoped_registry() as reg:
        one = virtual_run(variant, platform, shape, params, symmetric=True)
    assert reg.value(COUNTER) == 1
    assert one.elapsed == full.elapsed  # exact, no tolerance
    assert one.results == full.results
    assert len(one.traces) == shape.p
    for a, b in zip(one.traces, full.traces, strict=True):
        assert a.by_label == b.by_label
        assert a.events == b.events
    # the one stepped rank reports its own handoffs, never more
    assert one.stats.handoffs <= full.stats.handoffs


def test_run_case_takes_the_symmetric_route_on_uniform_slabs():
    platform = get_platform("Hopper")
    shape = ProblemShape(64, 64, 16, 8)
    with scoped_registry() as reg:
        res, _ = api.run_case("NEW", platform, shape, record_events=True)
    assert reg.value(COUNTER) == 1
    full = virtual_run("NEW", platform, shape, None, symmetric=False)
    assert res.elapsed == full.elapsed
    assert res.breakdown == full.breakdown(api.BREAKDOWN_LABELS)
    # p references to one trace, so per-rank readers still see p ranks
    assert all(t is res.sim.traces[0] for t in res.sim.traces)
    assert res.sim.max_by_label("Wait") == full.max_by_label("Wait")


def _faulted():
    with injected_faults("straggler:rank=1,slow=2.0;seed:7"):
        api.run_case("NEW", get_platform("Hopper"), ProblemShape(32, 32, 8, 4))


def _uneven():
    api.run_case("NEW", get_platform("UMD-Cluster"), ProblemShape(40, 40, 8, 6))


def _payload():
    rng = np.random.default_rng(3)
    arr = rng.standard_normal((16, 16, 8)) + 1j * rng.standard_normal((16, 16, 8))
    api.run_case("NEW", get_platform("UMD-Cluster"), ProblemShape(16, 16, 8, 4),
                 global_array=arr)


def _pencil():
    rng = np.random.default_rng(4)
    arr = rng.standard_normal((8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8))
    plan = fft3d_plan(GridShape(8, 8, 8, 4), get_platform("UMD-Cluster"),
                      grid=(2, 2))
    plan.forward(arr)


def _multi():
    run_multi_array(get_platform("UMD-Cluster"), ProblemShape(16, 16, 8, 4),
                    3, "both")


def test_ineligible_runs_stay_on_the_p_rank_path():
    for run in (_faulted, _uneven, _payload, _pencil, _multi):
        with scoped_registry() as reg:
            run()
            assert reg.total("sim_handoffs_total") > 0, run.__name__
        assert reg.total(COUNTER) == 0, run.__name__
