"""run_spmd / SimResult surface."""

import pytest

from repro.machine import HOPPER, UMD_CLUSTER
from repro.simmpi import SimResult, run_spmd


def idle(ctx):
    """A rank that does nothing."""
    return None
    yield  # pragma: no cover - marks this as a generator function


class TestRunSpmd:
    def test_args_and_kwargs_forwarded(self):
        def prog(ctx, a, b, scale=1):
            return (a + b) * scale + ctx.rank
            yield  # pragma: no cover - marks this as a generator function

        res = run_spmd(3, prog, UMD_CLUSTER, 1, 2, scale=10)
        assert res.results == [30, 31, 32]

    def test_platform_recorded(self):
        res = run_spmd(2, idle, HOPPER)
        assert res.platform.name == "Hopper"
        assert res.nprocs == 2

    def test_traces_one_per_rank(self):
        def prog(ctx):
            ctx.compute(0.1, "w")
            yield from ()  # never blocks, but runs as a generator program

        res = run_spmd(5, prog, UMD_CLUSTER)
        assert len(res.traces) == 5
        assert all(tr.by_label["w"] == pytest.approx(0.1) for tr in res.traces)

    def test_breakdown_average_semantics(self):
        def prog(ctx):
            if ctx.rank == 0:
                ctx.compute(1.0, "hot")
            yield from ctx.comm.co_alltoall(0)

        res = run_spmd(4, prog, UMD_CLUSTER)
        # Average over ranks: only one rank did the work.
        assert res.breakdown()["hot"] == pytest.approx(0.25)
        assert res.max_by_label("hot") == pytest.approx(1.0)

    def test_elapsed_vs_breakdown_consistency(self):
        def prog(ctx):
            ctx.compute(0.2, "a")
            yield from ctx.comm.co_alltoall(0)

        res = run_spmd(3, prog, UMD_CLUSTER)
        assert res.elapsed >= 0.2

    def test_zero_work_program(self):
        def prog(ctx):
            return ctx.rank
            yield  # pragma: no cover - marks this as a generator function

        res = run_spmd(4, prog, UMD_CLUSTER)
        assert res.elapsed == 0.0
        assert res.results == [0, 1, 2, 3]

    def test_simresult_is_plain_dataclass(self):
        res = run_spmd(1, idle, UMD_CLUSTER)
        assert isinstance(res, SimResult)
        assert res.breakdown([]) == {}
