"""Engine-level tests: scheduling, determinism, tracing, failure modes."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.machine import UMD_CLUSTER
from repro.simmpi import run_spmd
from repro.simmpi.engine import Engine, RankTrace


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
            # blocking point (here: one barrier per pair of ranks)
            # releases each rank at its pair's latest entry, whatever
            # order the ranks were executed in.
            pair = yield from ctx.comm.co_split(ctx.rank // 2)
            t0 = ctx.now
            ctx.compute(0.1 * (ctx.size - ctx.rank))
            yield from pair.co_barrier()
            return ctx.now - t0

        res = run_spmd(4, prog, UMD_CLUSTER)
        lat = UMD_CLUSTER.net.latency  # a 2-rank barrier is one hop
        assert res.results == pytest.approx(
            [0.4 + lat, 0.4 + lat, 0.2 + lat, 0.2 + lat], rel=1e-9
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
            yield from ctx.comm.co_barrier()

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
            return (yield from ctx.comm.co_allreduce(1))

        res = run_spmd(64, prog, UMD_CLUSTER)
        assert all(v == 64 for v in res.results)


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
            if ctx.rank == 0:
                yield from ctx.comm.co_barrier()
            # rank 1 never joins

        with pytest.raises(DeadlockError):
            run_spmd(2, prog, UMD_CLUSTER)


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
        eng = Engine(1, UMD_CLUSTER)
        ids = {eng.new_comm_id() for _ in range(10)}
        assert len(ids) == 10
