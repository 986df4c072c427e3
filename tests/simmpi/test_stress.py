"""Stress and property tests for the simulated MPI under irregular,
asymmetric programs (the pipeline only exercises the symmetric case)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import UMD_CLUSTER
from repro.simmpi import run_spmd
from tests.simmpi.test_comm import parity_comm


class TestAsymmetricPrograms:
    def test_unbalanced_alltoall_groups(self):
        """Two sub-communicators run different numbers of exchanges."""

        def prog(ctx):
            sub = parity_comm(ctx)
            reps = 3 if ctx.rank % 2 == 0 else 5
            for _ in range(reps):
                yield from sub.co_alltoall(512)
            return sum((yield from sub.co_alltoall(8, payload=[1] * sub.size)))

        res = run_spmd(6, prog, UMD_CLUSTER)
        assert all(v == 3 for v in res.results)

    def test_staggered_collective_entry(self):
        """A zero-byte alltoall completes at (just after) the slowest
        entrant."""

        def prog(ctx):
            ctx.compute(0.001 * ctx.rank**2)
            yield from ctx.comm.co_alltoall(0)
            return ctx.now

        res = run_spmd(5, prog, UMD_CLUSTER)
        slowest = 0.001 * 16
        for t in res.results:
            assert t >= slowest
            assert t < slowest + 0.001  # it adds only latency terms


class TestRandomizedPrograms:
    @given(st.integers(2, 8), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_random_collective_sequences_deterministic(self, p, seed):
        """Any sequence of collectives (barriers, reductions and gathers
        as alltoalls) completes identically twice."""

        def make_prog(seed):
            def prog(ctx):
                rng = random.Random(seed)  # same seed -> same sequence
                for _ in range(6):
                    op = rng.choice(["barrier", "allreduce", "alltoall",
                                     "allgather"])
                    ctx.compute(rng.random() * 1e-4)
                    if op == "barrier":
                        yield from ctx.comm.co_alltoall(0)
                    elif op == "alltoall":
                        yield from ctx.comm.co_alltoall(rng.randrange(1, 4096))
                    else:  # a reduction or gather: an alltoall of the value
                        yield from ctx.comm.co_alltoall(
                            8, payload=[ctx.rank] * ctx.size)
                return ctx.now

            return prog

        a = run_spmd(p, make_prog(seed), UMD_CLUSTER)
        b = run_spmd(p, make_prog(seed), UMD_CLUSTER)
        assert a.results == b.results


class TestScale:
    @pytest.mark.parametrize("p", [32, 128])
    def test_large_rank_counts(self, p):
        def prog(ctx):
            req = ctx.comm.ialltoall(1024)
            ctx.progress_phases(((0.01, 16, "compute"),), [req])
            yield from ctx.comm.co_wait(req)
            return sum((yield from ctx.comm.co_alltoall(
                8, payload=[1] * ctx.size
            )))

        res = run_spmd(p, prog, UMD_CLUSTER)
        assert all(v == p for v in res.results)

    def test_many_sequential_exchanges(self):
        def prog(ctx):
            for _ in range(100):
                yield from ctx.comm.co_alltoall(256)
            return ctx.now

        res = run_spmd(4, prog, UMD_CLUSTER)
        assert res.elapsed > 0
