"""Manual-progression mechanics: injection pacing, rendezvous, NIC
serialization — the modeled physics behind the paper's F* parameters."""

import numpy as np
import pytest

from repro.machine import UMD_CLUSTER, CacheModel, CpuModel, NetworkModel, Platform
from repro.simmpi import run_spmd
from repro.simmpi.fabric import Fabric, P2PMessage


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


class TestFabricInject:
    def test_single_message_timing(self):
        plat = tiny_platform()
        fab = Fabric(plat, 2)
        arr = fab.inject(0, 0.0, np.array([1000]), np.array([0.0]), 0.0)
        # 1000 B at 1 GB/s = 1 us serialization + 1 us latency (eager).
        assert arr[0] == pytest.approx(2e-6)
        assert fab.nic_free[0] == pytest.approx(1e-6)

    def test_serialization_accumulates(self):
        fab = Fabric(tiny_platform(), 2)
        arr = fab.inject(0, 0.0, np.array([1000, 1000]), np.zeros(2), 0.0)
        assert arr[1] - arr[0] == pytest.approx(1e-6)

    def test_postable_gates_start(self):
        fab = Fabric(tiny_platform(), 2)
        arr = fab.inject(0, 0.0, np.array([1000]), np.array([5.0]), 0.0)
        assert arr[0] == pytest.approx(5.0 + 2e-6)

    def test_rendezvous_penalty_above_threshold(self):
        fab = Fabric(tiny_platform(), 2)
        small = fab.inject(0, 0.0, np.array([4096]), np.array([0.0]), 0.01)
        fab2 = Fabric(tiny_platform(), 2)
        big = fab2.inject(0, 0.0, np.array([4097]), np.array([0.0]), 0.01)
        # Big message pays 2*latency + gap/2 on top.
        extra = big[0] - small[0]
        assert extra == pytest.approx(2e-6 + 0.005, rel=1e-6, abs=1e-9)

    def test_empty_batch(self):
        fab = Fabric(tiny_platform(), 2)
        assert len(fab.inject(0, 0.0, np.array([]), np.array([]), 0.0)) == 0

    def test_bytes_injected_tracked(self):
        fab = Fabric(tiny_platform(), 2)
        fab.inject(0, 0.0, np.array([100, 200]), np.zeros(2), 0.0)
        assert fab.bytes_injected[0] == 300


class TestP2PMailbox:
    def test_match_order_across_sources(self):
        fab = Fabric(tiny_platform(), 3)
        fab.post_p2p(P2PMessage(src=1, dst=0, tag=0, nbytes=8, arrival=1.0))
        fab.post_p2p(P2PMessage(src=2, dst=0, tag=0, nbytes=8, arrival=0.5))
        # Post order wins for ANY_SOURCE (deterministic matching).
        m = fab.match_p2p(0, None, None)
        assert m.src == 1
        fab.take_p2p(m)
        assert fab.match_p2p(0, None, None).src == 2

    def test_pending_count(self):
        fab = Fabric(tiny_platform(), 2)
        assert fab.pending_p2p() == 0
        fab.post_p2p(P2PMessage(src=0, dst=1, tag=0, nbytes=8, arrival=0.0))
        assert fab.pending_p2p() == 1


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

    def test_test_call_returns_flag(self):
        def prog(ctx):
            c = ctx.comm
            req = c.ialltoall(64)
            flags = []
            for _ in range(50):
                ctx.compute(1e-4)
                flag, _ = yield from c.co_test(req)
                flags.append(flag)
                if flag:
                    break
            assert flags[-1] is True
            return sum(flags)

        res = run_spmd(4, prog, tiny_platform())
        assert all(v == 1 for v in res.results)

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

        plat = tiny_platform()
        from repro.simmpi.engine import Engine

        eng = Engine(4, plat)
        eng.run(prog)
        assert len(eng.fabric._colls) == 0  # all retired after completion
