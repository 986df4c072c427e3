"""The engine's rank substrate: generator programs on one scheduler.

Every rank is a generator resumed by the scheduler (the ``tasks``
substrate, the label :class:`~repro.simmpi.SchedStats` reports).  These
tests pin how a run fails (wrapped rank exceptions, deadlock
detection), that plain callables, blocking facades and a backend option
are rejected, and that the scheduler counters are populated.  The
clocks, results, counters and events of the hand-written scenario
programs are pinned by ``tests/simmpi/sched_golden.json``.
"""

import numpy as np
import pytest

from repro.errors import DeadlockError, SimulationError
from repro.machine import UMD_CLUSTER
from repro.simmpi import Engine, run_spmd
from tests.simmpi.sched_golden import prog_overlap, prog_split


def prog_failing(ctx):
    ctx.compute(0.001, "work")
    if ctx.rank == 1:
        raise ValueError("rank 1 exploded")
    yield from ctx.comm.co_alltoall(0)


def prog_deadlock(ctx):
    # rank 0 waits on an exchange that rank 1 never posts
    if ctx.rank == 0:
        yield from ctx.comm.co_alltoall(64)


class TestFailures:
    def test_exception_wrapped(self):
        with pytest.raises(SimulationError, match="rank 1 failed") as exc:
            run_spmd(4, prog_failing, UMD_CLUSTER)
        assert isinstance(exc.value.__cause__, ValueError)

    def test_deadlock_detected(self):
        with pytest.raises(DeadlockError):
            run_spmd(2, prog_deadlock, UMD_CLUSTER)


class TestBackendSelection:
    def test_auto_picks_tasks_for_generators(self):
        sim = run_spmd(4, prog_split, UMD_CLUSTER)
        assert sim.stats.backend == "tasks"

    def test_tasks_backend_rejects_plain_callables(self):
        with pytest.raises(SimulationError, match="generator"):
            run_spmd(4, lambda ctx: ctx.rank, UMD_CLUSTER)

    def test_unknown_backend_rejected(self):
        # there is one rank substrate and no option to pick another
        with pytest.raises(TypeError, match="backend"):
            Engine(2, UMD_CLUSTER, backend="threads")
        with pytest.raises(TypeError, match="backend"):
            run_spmd(2, prog_split, UMD_CLUSTER, backend="threads")

    def test_sync_facade_rejected_on_tasks_backend(self):
        def bad(ctx):
            ctx.comm.alltoall(8)  # blocking spelling: only co_alltoall exists
            yield from ctx.comm.co_alltoall(8)

        with pytest.raises(SimulationError, match="rank .* failed") as exc:
            run_spmd(2, bad, UMD_CLUSTER)
        assert isinstance(exc.value.__cause__, AttributeError)

    def test_stats_counters_populated(self):
        sim = run_spmd(4, prog_overlap, UMD_CLUSTER)
        assert sim.stats.handoffs > 0
        assert sim.stats.probe_polls > 0


def prog_pencil(ctx, shape, grid):
    from repro.core.pencil import PencilFFT3D

    yield from PencilFFT3D(ctx, shape, grid).steps(None)
    return ctx.now


class TestPencilBackends:
    def test_real_pencil_bit_identical_and_correct(self):
        """A grid plan's real-payload engine run (forced by a rank-span
        tracer) keeps the virtual run's clocks, counters and events bit
        for bit, and its spectrum matches numpy."""
        from repro.core.distplan import fft3d_plan
        from repro.core.pencil import GridShape, choose_grid
        from repro.obs import Tracer, tracing

        rng = np.random.default_rng(7)
        shape = (8, 8, 8)
        arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        grid = choose_grid(4)
        plan = fft3d_plan(GridShape(*shape, 4), UMD_CLUSTER, grid=grid)
        with tracing(Tracer(rank_spans=True)):
            spectrum, real = plan.forward(arr)
        virt = run_spmd(4, prog_pencil, UMD_CLUSTER, shape, grid,
                        record_events=True)
        assert real.elapsed == virt.elapsed
        assert real.stats == virt.stats
        assert [t.events[-1][1] for t in real.traces] == virt.results
        assert [t.events for t in real.traces] == [t.events for t in virt.traces]
        np.testing.assert_allclose(spectrum, np.fft.fftn(arr), atol=1e-10)
