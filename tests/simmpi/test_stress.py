"""Stress and property tests for the simulated MPI under irregular,
asymmetric programs (the pipeline only exercises the symmetric case)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import UMD_CLUSTER
from repro.simmpi import run_spmd


class TestAsymmetricPrograms:
    def test_master_worker(self):
        """Rank 0 farms out work items and collects replies."""

        def prog(ctx):
            c = ctx.comm
            if c.rank == 0:
                for item in range(2 * (c.size - 1)):
                    dst = 1 + item % (c.size - 1)
                    yield from c.co_send(dst, 64, payload=item, tag=1)
                results = []
                for _ in range(2 * (c.size - 1)):
                    results.append((yield from c.co_recv(tag=2))[0])
                assert sorted(results) == [i * i for i in range(2 * (c.size - 1))]
            else:
                for _ in range(2):
                    item, _src, _tag, _ = yield from c.co_recv(source=0, tag=1)
                    ctx.compute(1e-4 * (item + 1))
                    yield from c.co_send(0, 64, payload=item * item, tag=2)

        run_spmd(5, prog, UMD_CLUSTER)

    def test_ring_pipeline_many_hops(self):
        """A token makes three full loops around a ring, incremented at
        every hop."""
        loops = 3

        def prog(ctx):
            c = ctx.comm
            nxt = (c.rank + 1) % c.size
            prv = (c.rank - 1) % c.size
            if c.rank == 0:
                yield from c.co_send(nxt, 32, payload=0)
                for lap in range(loops):
                    val, _, _, _ = yield from c.co_recv(source=prv)
                    assert val == (lap + 1) * c.size - 1
                    if lap < loops - 1:
                        yield from c.co_send(nxt, 32, payload=val + 1)
            else:
                for _lap in range(loops):
                    val, _, _, _ = yield from c.co_recv(source=prv)
                    yield from c.co_send(nxt, 32, payload=val + 1)
            return ctx.now

        run_spmd(4, prog, UMD_CLUSTER)

    def test_unbalanced_alltoall_groups(self):
        """Two split groups run different numbers of exchanges."""

        def prog(ctx):
            c = ctx.comm
            sub = yield from c.co_split(color=ctx.rank % 2)
            reps = 3 if ctx.rank % 2 == 0 else 5
            for _ in range(reps):
                yield from sub.co_alltoall(512)
            return (yield from sub.co_allreduce(1))

        res = run_spmd(6, prog, UMD_CLUSTER)
        assert all(v == 3 for v in res.results)

    def test_staggered_collective_entry(self):
        """A barrier completes at (just after) the slowest entrant."""

        def prog(ctx):
            ctx.compute(0.001 * ctx.rank**2)
            yield from ctx.comm.co_barrier()
            return ctx.now

        res = run_spmd(5, prog, UMD_CLUSTER)
        slowest = 0.001 * 16
        for t in res.results:
            assert t >= slowest
            assert t < slowest + 0.001  # barrier adds only latency terms


class TestRandomizedPrograms:
    @given(st.integers(2, 8), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_random_collective_sequences_deterministic(self, p, seed):
        """Any sequence of collectives completes identically twice."""

        def make_prog(seed):
            def prog(ctx):
                rng = random.Random(seed)  # same seed -> same sequence
                for _ in range(6):
                    op = rng.choice(["barrier", "allreduce", "alltoall",
                                     "bcast", "allgather"])
                    ctx.compute(rng.random() * 1e-4)
                    if op == "barrier":
                        yield from ctx.comm.co_barrier()
                    elif op == "allreduce":
                        yield from ctx.comm.co_allreduce(ctx.rank, nbytes=8)
                    elif op == "alltoall":
                        yield from ctx.comm.co_alltoall(rng.randrange(1, 4096))
                    elif op == "bcast":
                        yield from ctx.comm.co_bcast(payload=1, nbytes=64, root=0)
                    else:
                        yield from ctx.comm.co_allgather(ctx.rank, nbytes=8)
                return ctx.now

            return prog

        a = run_spmd(p, make_prog(seed), UMD_CLUSTER)
        b = run_spmd(p, make_prog(seed), UMD_CLUSTER)
        assert a.results == b.results

    @given(st.integers(2, 6), st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_random_p2p_talk_completes(self, p, seed):
        """Random (but globally agreed) send/recv pairings never deadlock
        when both sides are posted non-blocking first."""

        def prog(ctx):
            rng = random.Random(seed)
            c = ctx.comm
            pairs = []
            for _ in range(8):
                a, b = rng.randrange(p), rng.randrange(p)
                if a != b:
                    pairs.append((a, b))
            rreqs = [c.irecv(source=a) for (a, b) in pairs if b == c.rank]
            sreqs = [
                c.isend(b, rng.randrange(16, 2048), payload=c.rank)
                for (a, b) in pairs
                if a == c.rank
            ]
            yield from c.co_waitall(sreqs)
            got = yield from c.co_waitall(rreqs)
            for payload, src, _tag, _n in got:
                assert payload == src
            return len(got)

        res = run_spmd(p, prog, UMD_CLUSTER)
        assert sum(res.results) >= 0


class TestScale:
    @pytest.mark.parametrize("p", [32, 128])
    def test_large_rank_counts(self, p):
        def prog(ctx):
            req = ctx.comm.ialltoall(1024)
            ctx.progress_phases(((0.01, 16, "compute"),), [req])
            yield from ctx.comm.co_wait(req)
            return (yield from ctx.comm.co_allreduce(1))

        res = run_spmd(p, prog, UMD_CLUSTER)
        assert all(v == p for v in res.results)

    def test_many_sequential_exchanges(self):
        def prog(ctx):
            for _ in range(100):
                yield from ctx.comm.co_alltoall(256)
            return ctx.now

        res = run_spmd(4, prog, UMD_CLUSTER)
        assert res.elapsed > 0
