"""Communicator semantics: alltoall, payloads, sub-communicators."""

import numpy as np
import pytest

from repro.errors import MPIUsageError, SimulationError
from repro.machine import HOPPER, UMD_CLUSTER
from repro.simmpi import Communicator, run_spmd


def parity_comm(ctx):
    """The even or the odd world ranks, as a directly built
    sub-communicator (ids 1 and 2; the world's is 0)."""
    color = ctx.rank % 2
    return Communicator(ctx, list(range(color, ctx.size, 2)), 1 + color)


class TestCollectives:
    """The collectives a program needs besides the pipelines' exchanges
    are alltoalls: a barrier carries zero bytes, and an allreduce or an
    allgather reduces or lists the received values locally."""

    def test_barrier_synchronizes_clocks(self):
        def prog(ctx):
            ctx.compute(0.01 * ctx.rank)
            yield from ctx.comm.co_alltoall(0)
            return ctx.now

        res = run_spmd(4, prog, UMD_CLUSTER)
        assert min(res.results) >= 0.03  # slowest rank dominates
        assert max(res.results) - min(res.results) < 1e-4  # latency only

    def test_allreduce_arrays(self):
        def prog(ctx):
            got = yield from ctx.comm.co_alltoall(
                24, payload=[np.full(3, ctx.rank)] * ctx.size
            )
            return sum(got)

        res = run_spmd(3, prog, UMD_CLUSTER)
        for arr in res.results:
            assert np.array_equal(arr, np.full(3, 3))

    def test_allgather(self):
        def prog(ctx):
            return (yield from ctx.comm.co_alltoall(
                8, payload=[ctx.rank**2] * ctx.size
            ))

        res = run_spmd(3, prog, UMD_CLUSTER)
        assert res.results == [[0, 1, 4]] * 3

    def test_group_size_mismatch_detected(self):
        def prog(ctx):
            # rank 0 disagrees with its peers on communicator 7's group
            group = [0, 1] if ctx.rank == 0 else [0, 1, 2]
            yield from Communicator(ctx, group, 7).co_alltoall(8)

        with pytest.raises(SimulationError) as ei:
            run_spmd(3, prog, UMD_CLUSTER)
        assert isinstance(ei.value.__cause__, MPIUsageError)
        assert "group size" in str(ei.value.__cause__)


class TestAlltoall:
    def test_blocking_payload_routing(self):
        def prog(ctx):
            c = ctx.comm
            chunks = [np.array([c.rank, d]) for d in range(c.size)]
            out = yield from c.co_alltoall(16, payload=chunks)
            for s, arr in enumerate(out):
                assert arr[0] == s and arr[1] == c.rank

        run_spmd(5, prog, UMD_CLUSTER)

    def test_alltoallv_counts(self):
        def prog(ctx):
            c = ctx.comm
            send = [16 * (d + 1) for d in range(c.size)]
            recv = [16 * (c.rank + 1)] * c.size
            req = c.ialltoall(send, recv)  # per-peer counts: Ialltoallv
            yield from c.co_wait(req)
            return ctx.now

        res = run_spmd(3, prog, UMD_CLUSTER)
        assert all(t > 0 for t in res.results)

    def test_request_reuse_rejected(self):
        def prog(ctx):
            c = ctx.comm
            req = c.ialltoall(8)
            yield from c.co_wait(req)
            yield from c.co_wait(req)

        with pytest.raises(Exception) as ei:
            run_spmd(2, prog, UMD_CLUSTER)
        assert "already waited" in str(ei.value.__cause__)

    def test_counts_length_validated(self):
        def prog(ctx):
            req = ctx.comm.ialltoall([8, 8, 8])  # size is 2
            yield from ctx.comm.co_wait(req)

        with pytest.raises(SimulationError) as ei:
            run_spmd(2, prog, UMD_CLUSTER)
        assert isinstance(ei.value.__cause__, MPIUsageError)

    def test_negative_counts_rejected(self):
        def prog(ctx):
            req = ctx.comm.ialltoall([-1, 8])
            yield from ctx.comm.co_wait(req)

        with pytest.raises(SimulationError) as ei:
            run_spmd(2, prog, UMD_CLUSTER)
        assert isinstance(ei.value.__cause__, MPIUsageError)

    def test_progression_hides_communication(self):
        """With enough compute and tests, Wait shrinks to (near) zero;
        with no tests, the full exchange is exposed at Wait — the paper's
        core mechanism (Section 3.3)."""

        def make(ntests):
            def prog(ctx):
                c = ctx.comm
                req = c.ialltoall(256 * 1024)
                ctx.progress_phases(((0.1, ntests, "compute"),), [req])
                t0 = ctx.now
                yield from c.co_wait(req)
                return ctx.now - t0

            return prog

        lazy = run_spmd(8, make(0), UMD_CLUSTER).results[0]
        eager = run_spmd(8, make(16), UMD_CLUSTER).results[0]
        assert eager < lazy * 0.2

    def test_more_tests_cost_more_overhead(self):
        def make(ntests):
            def prog(ctx):
                req = ctx.comm.ialltoall(1024)
                ctx.progress_phases(((0.01, ntests, "compute"),), [req])
                yield from ctx.comm.co_wait(req)
                return ctx.now

            return prog

        few = run_spmd(4, make(2), UMD_CLUSTER).elapsed
        many = run_spmd(4, make(500), UMD_CLUSTER).elapsed
        assert many > few

    def test_blocking_alltoall_time_scales_with_bytes(self):
        def make(nbytes):
            def prog(ctx):
                yield from ctx.comm.co_alltoall(nbytes)
                return ctx.now

            return prog

        small = run_spmd(4, make(1024), UMD_CLUSTER).elapsed
        big = run_spmd(4, make(1024 * 1024), UMD_CLUSTER).elapsed
        assert big > 10 * small

    def test_hopper_faster_than_umd(self):
        def prog(ctx):
            yield from ctx.comm.co_alltoall(512 * 1024)
            return ctx.now

        umd = run_spmd(8, prog, UMD_CLUSTER).elapsed
        hop = run_spmd(8, prog, HOPPER).elapsed
        assert hop < umd

    def test_window_of_concurrent_alltoalls(self):
        def prog(ctx):
            c = ctx.comm
            reqs = [c.ialltoall(64 * 1024) for _ in range(3)]
            # 8 tests on each request of the window
            ctx.progress_phases(((0.05, 8 * len(reqs), "compute"),), reqs)
            for req in reqs:
                yield from c.co_wait(req)
            return ctx.now

        res = run_spmd(4, prog, UMD_CLUSTER)
        assert res.elapsed > 0


class TestSplit:
    """Sub-communicators built directly over a group of world ranks."""

    def test_split_groups_and_collectives(self):
        def prog(ctx):
            sub = parity_comm(ctx)
            got = yield from sub.co_alltoall(8, payload=[ctx.rank] * sub.size)
            return sub.size, sum(got)

        res = run_spmd(6, prog, UMD_CLUSTER)
        for r, (size, total) in enumerate(res.results):
            assert size == 3
            assert total == sum(x for x in range(6) if x % 2 == r % 2)

    def test_sub_communicator_alltoall(self):
        def prog(ctx):
            sub = parity_comm(ctx)
            chunks = [(ctx.rank, d) for d in range(sub.size)]
            out = yield from sub.co_alltoall(16, payload=chunks)
            return sub.group, out

        res = run_spmd(6, prog, UMD_CLUSTER)
        for world, (group, out) in enumerate(res.results):
            assert group == [r for r in range(6) if r % 2 == world % 2]
            # chunk s comes from member s (a world rank), addressed to
            # this rank's index within the sub-communicator
            me = group.index(world)
            assert out == [(group[s], me) for s in range(len(group))]

    def test_rank_outside_group_rejected(self):
        def prog(ctx):
            Communicator(ctx, [0], 1)
            yield from ()

        with pytest.raises(SimulationError) as ei:
            run_spmd(2, prog, UMD_CLUSTER)
        assert "not in group" in str(ei.value.__cause__)
