"""Manual-progression mechanics: injection pacing, rendezvous, NIC
serialization — the modeled physics behind the paper's F* parameters."""

import pytest

from repro.machine import CacheModel, CpuModel, NetworkModel, Platform
from repro.simmpi import Engine, run_spmd


def tiny_platform(**net_kw):
    net = dict(
        latency=1e-6,
        node_bw=1e9,
        ranks_per_node=1,
        eager_threshold=4096,
        max_inflight=2,
        contention_coeff=0.0,
    )
    net.update(net_kw)
    return Platform(
        name="tiny",
        cpu=CpuModel(
            flops=1e9, mem_bw=2e9, cache_bw=8e9,
            cache=CacheModel(l1_bytes=32 * 1024, l2_bytes=256 * 1024),
        ),
        net=NetworkModel(**net),
    )


def exchange(nbytes, before=0.0, nprocs=2):
    """Each rank computes ``before`` seconds, posts one ``ialltoall`` of
    ``nbytes`` per peer (at p=2: one message each way) and waits on it.
    Returns rank 0's ``(post time, wait return time)`` and the fabric."""

    def prog(ctx):
        if before:
            ctx.compute(before)
        req = ctx.comm.ialltoall(nbytes)
        t_post = ctx.now
        yield from ctx.comm.co_wait(req)
        return t_post, ctx.now

    eng = Engine(nprocs, tiny_platform())
    results = eng.run(prog)
    return results[0], eng.fabric


class TestFabricInject:
    """NIC injection of the alltoall's messages: serialization at the
    rank rate, latency, and the rendezvous penalty (tiny platform: 1 us
    latency, 1 GB/s, eager threshold 4096 B)."""

    def test_single_message_timing(self):
        (t_post, t_done), fab = exchange(1000)
        # 1000 B at 1 GB/s = 1 us serialization + 1 us latency (eager).
        assert t_done - t_post == pytest.approx(2e-6)
        assert fab.nic_free[0] == pytest.approx(t_post + 1e-6)

    def test_serialization_accumulates(self):
        """A second exchange posted while the NIC still sends the first
        queues behind it."""
        m = 1 << 20  # ~1 ms on the wire, far longer than the post cost

        def prog(ctx):
            first = ctx.comm.ialltoall(m)
            second = ctx.comm.ialltoall(m)
            yield from ctx.comm.co_wait(first)
            t1 = ctx.now
            yield from ctx.comm.co_wait(second)
            return t1, ctx.now

        t1, t2 = run_spmd(2, prog, tiny_platform()).results[0]
        assert t2 - t1 == pytest.approx(m / 1e9)

    def test_postable_gates_start(self):
        (t_post, t_done), fab = exchange(1000, before=5.0)
        assert t_post > 5.0
        assert t_done == pytest.approx(t_post + 2e-6)
        assert fab.nic_free[0] == pytest.approx(t_post + 1e-6)

    def test_rendezvous_penalty_above_threshold(self):
        (p_small, small), _ = exchange(4096)
        (p_big, big), _ = exchange(4097)
        assert p_small == p_big
        # Posted by the Ialltoall call itself (no epoch gap): the big
        # message pays 2*latency on top of its one extra byte.
        assert big - small == pytest.approx(2e-6 + 1e-9, rel=1e-6)

    def test_rendezvous_waits_half_the_epoch_gap(self):
        """A round posted at an MPI_Test epoch pays half the sender's
        epoch gap as the rendezvous response delay."""

        def make(nbytes):
            def prog(ctx):
                req = ctx.comm.ialltoall(nbytes)
                if ctx.rank == 0:
                    # one test in 1 s: epoch gap 0.5 s, and the second
                    # round (rank 0 -> rank 2) posts at that epoch
                    ctx.progress_phases(((1.0, 1, "compute"),), [req])
                yield from ctx.comm.co_wait(req)
                return ctx.now

            return prog

        plat = tiny_platform(max_inflight=1)
        small = run_spmd(3, make(4096), plat).results[2]
        big = run_spmd(3, make(4097), plat).results[2]
        assert big - small == pytest.approx(2e-6 + 0.25 + 1e-9, rel=1e-6)

    def test_empty_batch(self):
        """A single rank's exchange has no peer: nothing is injected and
        it completes at its own post time."""
        (t_post, t_done), fab = exchange(1000, nprocs=1)
        assert t_done == t_post
        assert fab.nic_free[0] == 0.0
        assert fab.bytes_injected[0] == 0

    def test_bytes_injected_tracked(self):
        def prog(ctx):
            # per-peer counts; the own slot is copied locally, not sent
            yield from ctx.comm.co_alltoall([100, 200])
            yield from ctx.comm.co_alltoall(300)

        eng = Engine(2, tiny_platform())
        eng.run(prog)
        assert eng.fabric.bytes_injected.tolist() == [500, 400]


class TestProgressionSemantics:
    def test_no_tests_no_background_progress(self):
        """Without library entries, only the initial post's eager batch
        moves; the rest serializes inside Wait."""

        def prog(ctx):
            c = ctx.comm
            req = c.ialltoall(1024 * 1024)
            ctx.compute(0.5)  # plain compute: no MPI_Test calls
            t0 = ctx.now
            yield from c.co_wait(req)
            return ctx.now - t0

        plat = tiny_platform()
        res = run_spmd(8, prog, plat)
        wait = res.results[0]
        # 7 peers x 1 MB at 1 GB/s = 7 ms minus the 2-message eager batch.
        assert wait > 4e-3

    def test_enough_tests_fully_hide(self):
        def prog(ctx):
            c = ctx.comm
            req = c.ialltoall(1024 * 1024)
            ctx.progress_phases(((0.5, 64, "compute"),), [req])
            t0 = ctx.now
            yield from c.co_wait(req)
            return ctx.now - t0

        res = run_spmd(8, prog, tiny_platform())
        assert res.results[0] < 1e-3

    def test_inflight_budget_limits_per_test(self):
        """One test can post at most max_inflight sends: with 7 peers and
        inflight=2, one test mid-segment cannot finish the exchange."""

        def make(ntests):
            def prog(ctx):
                c = ctx.comm
                req = c.ialltoall(512 * 1024)
                ctx.progress_phases(((0.5, ntests, "compute"),), [req])
                t0 = ctx.now
                yield from c.co_wait(req)
                return ctx.now - t0

            return prog

        one = run_spmd(8, make(1), tiny_platform()).results[0]
        many = run_spmd(8, make(32), tiny_platform()).results[0]
        assert many < one

    def test_wait_flushes_at_full_rate(self):
        """Wait parks the rank in the library, so the remaining sends
        serialize back-to-back at NIC rate: elapsed ~ (p-1)*m/rate."""

        def prog(ctx):
            yield from ctx.comm.co_alltoall(1024 * 1024)
            return ctx.now

        res = run_spmd(8, prog, tiny_platform())
        expected = 7 * 1024 * 1024 / 1e9  # ~7.3 ms serialization
        assert res.elapsed == pytest.approx(expected, rel=0.5)

    def test_progress_entries_counted(self):
        def prog(ctx):
            c = ctx.comm
            req = c.ialltoall(1024)
            ctx.progress_phases(((0.01, 5, "compute"),), [req])
            yield from c.co_wait(req)
            return req.progress_entries

        res = run_spmd(3, prog, tiny_platform())
        # post + one progressed segment + wait = 3 library entries.
        assert res.results[0] == 3

    def test_collective_op_records_released(self):
        def prog(ctx):
            for _ in range(10):
                yield from ctx.comm.co_alltoall(256)
            return True

        eng = Engine(4, tiny_platform())
        eng.run(prog)
        assert len(eng.fabric._colls) == 0  # all retired after completion
