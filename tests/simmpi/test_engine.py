"""Engine-level tests: scheduling, determinism, tracing, failure modes."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.machine import UMD_CLUSTER
from repro.simmpi import Communicator, run_spmd
from repro.faults import injected_faults
from repro.simmpi.engine import Engine, RankTrace
from tests.simmpi.sched_golden import FAULTS, make_prog


class TestClockAndScheduling:
    def test_compute_advances_clock(self):
        def prog(ctx):
            assert ctx.now == 0.0
            ctx.compute(0.5)
            return ctx.now
            yield  # pragma: no cover - marks this as a generator function

        res = run_spmd(3, prog, UMD_CLUSTER)
        assert res.results == [0.5, 0.5, 0.5]
        assert res.elapsed == 0.5

    def test_negative_advance_rejected(self):
        def prog(ctx):
            ctx.compute(-1.0)
            yield from ()  # never blocks, but runs as a generator program

        with pytest.raises(SimulationError):
            run_spmd(1, prog, UMD_CLUSTER)

    def test_blocking_points_respect_virtual_time(self):
        def prog(ctx):
            # Ranks run ahead freely through local compute, but a
            # blocking point (here: a zero-byte alltoall per pair of
            # ranks) releases each rank at its pair's latest entry,
            # whatever order the ranks were executed in.
            first = ctx.rank // 2 * 2
            pair = Communicator(ctx, [first, first + 1], 1 + ctx.rank // 2)
            t0 = ctx.now
            ctx.compute(0.1 * (ctx.size - ctx.rank))
            yield from pair.co_alltoall(0)
            return ctx.now - t0

        res = run_spmd(4, prog, UMD_CLUSTER)
        # the later entrant's post, then its empty message's one hop
        hop = UMD_CLUSTER.net.post_cost(2) + UMD_CLUSTER.net.latency
        assert res.results == pytest.approx(
            [0.4 + hop, 0.4 + hop, 0.2 + hop, 0.2 + hop], rel=1e-9
        )

    def test_deterministic_repeat(self):
        def prog(ctx):
            c = ctx.comm
            req = c.ialltoall(32 * 1024)
            ctx.progress_phases(((0.003, 4, "compute"),), [req])
            yield from c.co_wait(req)
            return ctx.now

        a = run_spmd(6, prog, UMD_CLUSTER)
        b = run_spmd(6, prog, UMD_CLUSTER)
        assert a.results == b.results
        assert a.elapsed == b.elapsed

    def test_rank_exception_propagates(self):
        def prog(ctx):
            if ctx.rank == 2:
                raise ValueError("boom")
            ctx.compute(0.001)
            yield from ctx.comm.co_alltoall(0)

        with pytest.raises(SimulationError) as ei:
            run_spmd(4, prog, UMD_CLUSTER)
        assert "rank 2" in str(ei.value)
        assert isinstance(ei.value.__cause__, ValueError)

    def test_results_in_rank_order(self):
        def prog(ctx):
            return ctx.rank * 10
            yield  # pragma: no cover - marks this as a generator function

        res = run_spmd(5, prog, UMD_CLUSTER)
        assert res.results == [0, 10, 20, 30, 40]

    def test_many_ranks(self):
        def prog(ctx):
            return sum((yield from ctx.comm.co_alltoall(
                8, payload=[1] * ctx.size
            )))

        res = run_spmd(64, prog, UMD_CLUSTER)
        assert all(v == 64 for v in res.results)


def check_next_pick(engine, rank, woken):
    """Assert that granting the token to ``rank`` at its clock keeps
    the min-virtual-time order: no other ready rank has an earlier
    clock, no blocked rank on the completion heap wakes earlier, ties
    between two ready or two waking ranks go to the lower rank id, and
    a ready rank keeps a tie against a waking one (``woken`` says which
    kind ``rank`` is)."""
    c, idx = rank.clock, rank.idx
    for other in engine.ranks:
        if other.idx != idx and other.state == "ready":
            if woken:
                assert c < other.clock
            else:
                assert (c, idx) < (other.clock, other.idx)
    for t, j in engine._ready_heap:
        if j != idx and engine.ranks[j].state == "blocked":
            if woken:
                assert (c, idx) < (t, j)
            else:
                assert c <= t


class TestMinTimeOrder:
    @given(seed=st.integers(0, 10**6), nprocs=st.integers(2, 9),
           nops=st.integers(4, 16), faults=st.sampled_from([None, FAULTS]))
    @settings(max_examples=40, deadline=None)
    def test_every_grant_goes_to_the_earliest_rank(self, seed, nprocs,
                                                   nops, faults):
        """Every resume, and every block the engine resolves in place,
        starts at a clock no later than any other ready rank's clock or
        any blocked rank's determinable wake time (ties by rank id), on
        the seeded alltoall-only programs of the scheduler fixture."""
        resume, next_is = Engine._resume, Engine._next_is
        grants = []

        def checked_resume(engine, rank):
            check_next_pick(engine, rank, woken=rank.block_t0 is not None)
            grants.append(rank.idx)
            resume(engine, rank)

        def checked_next_is(engine, c, idx):
            ok = next_is(engine, c, idx)
            if ok:
                rank = engine.ranks[idx]
                assert rank.clock == c
                check_next_pick(engine, rank, woken=True)
            return ok

        with mock.patch.object(Engine, "_resume", checked_resume), \
                mock.patch.object(Engine, "_next_is", checked_next_is), \
                injected_faults(faults):
            sim = run_spmd(nprocs, make_prog(seed, nops), UMD_CLUSTER)
        assert len(grants) == sim.stats.handoffs


class TestDeadlockDetection:
    def test_unposted_alltoall_deadlocks(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.co_alltoall(64)
            # rank 1 never posts its half of the exchange

        with pytest.raises(DeadlockError) as ei:
            run_spmd(2, prog, UMD_CLUSTER)
        assert "rank 0" in str(ei.value) and "blocked" in str(ei.value)

    def test_mismatched_collective_participation_deadlocks(self):
        def prog(ctx):
            first = ctx.rank // 2 * 2
            pair = Communicator(ctx, [first, first + 1], 1 + ctx.rank // 2)
            if ctx.rank != 1:
                yield from pair.co_alltoall(64)
            # rank 1 never joins its pair's exchange; ranks 2 and 3
            # finish theirs

        with pytest.raises(DeadlockError) as ei:
            run_spmd(4, prog, UMD_CLUSTER)
        msg = str(ei.value)
        assert "rank 0" in msg and "blocked" in msg
        assert "rank 2" not in msg and "rank 3" not in msg


class TestTracing:
    def test_labels_accumulate(self):
        def prog(ctx):
            ctx.compute(0.2, "alpha")
            ctx.compute(0.3, "alpha")
            ctx.compute(0.1, "beta")
            yield from ()  # never blocks, but runs as a generator program

        res = run_spmd(2, prog, UMD_CLUSTER)
        bd = res.breakdown()
        assert bd["alpha"] == pytest.approx(0.5)
        assert bd["beta"] == pytest.approx(0.1)

    def test_breakdown_selected_labels(self):
        def prog(ctx):
            ctx.compute(0.2, "alpha")
            yield from ()  # never blocks, but runs as a generator program

        res = run_spmd(1, prog, UMD_CLUSTER)
        bd = res.breakdown(["alpha", "missing"])
        assert bd == {"alpha": pytest.approx(0.2), "missing": 0.0}

    def test_event_timeline_recorded_on_request(self):
        def prog(ctx):
            ctx.compute(0.1, "a")
            ctx.compute(0.2, "b")
            yield from ()  # never blocks, but runs as a generator program

        res = run_spmd(1, prog, UMD_CLUSTER, record_events=True)
        events = res.traces[0].events
        assert events[0] == (0.0, pytest.approx(0.1), "a")
        assert events[1] == (pytest.approx(0.1), pytest.approx(0.3), "b")

    def test_events_off_by_default(self):
        def prog(ctx):
            ctx.compute(0.1, "a")
            yield from ()  # never blocks, but runs as a generator program

        res = run_spmd(1, prog, UMD_CLUSTER)
        assert res.traces[0].events is None

    def test_max_by_label(self):
        def prog(ctx):
            ctx.compute(0.1 * (ctx.rank + 1), "w")
            yield from ()  # never blocks, but runs as a generator program

        res = run_spmd(3, prog, UMD_CLUSTER)
        assert res.max_by_label("w") == pytest.approx(0.3)

    def test_negative_event_rejected(self):
        tr = RankTrace()
        with pytest.raises(SimulationError):
            tr.add(1.0, 0.5, "x")


class TestEngineMisc:
    def test_zero_ranks_rejected(self):
        from repro.errors import MPIUsageError

        with pytest.raises(MPIUsageError):
            Engine(0, UMD_CLUSTER)

    def test_final_time_is_max_rank_clock(self):
        def prog(ctx):
            ctx.compute(0.1 * (ctx.rank + 1))
            yield from ()  # never blocks, but runs as a generator program

        res = run_spmd(3, prog, UMD_CLUSTER)
        assert res.elapsed == pytest.approx(0.3)

    def test_comm_ids_unique(self):
        # Exchanges match by (communicator id, sequence number): two
        # communicators over the same group keep their exchanges apart
        # even when the members post them in opposite orders.
        def prog(ctx):
            a = Communicator(ctx, [0, 1], 1)
            b = Communicator(ctx, [0, 1], 2)
            first, second = (a, b) if ctx.rank == 0 else (b, a)
            reqs = [c.ialltoall(8, payload=[(c.comm_id, ctx.rank)] * 2)
                    for c in (first, second)]
            got = {}
            for c, req in zip((first, second), reqs):
                got[c.comm_id] = yield from c.co_wait(req)
            return got

        res = run_spmd(2, prog, UMD_CLUSTER)
        assert res.results == [{1: [(1, 0), (1, 1)], 2: [(2, 0), (2, 1)]}] * 2
