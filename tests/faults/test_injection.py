"""Fault injection through the simulated machine.

The contracts under test: fault injection is bit-for-bit deterministic
under a fixed seed, a straggler measurably increases exposed
communication in the overlap summary, and a fault-free run is
byte-identical to one with no spec installed.
"""

import pytest

from repro.core.api import run_case
from repro.core.params import ProblemShape
from repro.faults import FaultSpec, injected_faults, parse_faults
from repro.machine.platforms import get_platform
from repro.obs import run_metrics
from repro.obs.registry import scoped_registry
from repro.simmpi.engine import Engine
from repro.simmpi.spmd import run_spmd

PLAT = get_platform("Hopper")
SHAPE = ProblemShape(64, 64, 64, 8)


def _elapsed(faults=None, variant="NEW"):
    with injected_faults(faults):
        result, _ = run_case(variant, PLAT, SHAPE)
    return result


@pytest.fixture
def base():
    result, _ = run_case("NEW", PLAT, SHAPE)
    return result


class TestDeterminism:
    @pytest.mark.parametrize("spec", [
        "straggler:rank=3,slow=2.0;seed:42",
        "jitter:amp=2e-6;seed:7",
        "spike:prob=0.05,extra=5e-4;seed:11",
        "degrade:rank=all,bw=0.02",
        "poll:rank=all,factor=8",
    ])
    def test_same_seed_same_times(self, spec):
        a = _elapsed(spec).elapsed
        b = _elapsed(spec).elapsed
        assert a == b  # bit-for-bit, not approximately

    def test_different_seed_different_times(self):
        # amplitude large enough that the jitter is not fully hidden
        # behind compute (a hidden draw cannot move the makespan)
        a = _elapsed("jitter:amp=5e-4;seed:1").elapsed
        b = _elapsed("jitter:amp=5e-4;seed:2").elapsed
        assert a != b

    def test_empty_spec_is_byte_identical_to_no_spec(self, base):
        inside = _elapsed(FaultSpec())
        assert inside.elapsed == base.elapsed
        assert inside.breakdown == base.breakdown


class TestEffects:
    def test_straggler_slows_the_run(self, base):
        faulty = _elapsed("straggler:rank=3,slow=2.0")
        assert faulty.elapsed > base.elapsed

    def test_straggler_increases_exposed_comm(self, base):
        # the ISSUE acceptance check: the overlap summary must show the
        # degraded machine as *more exposed* communication, not just a
        # longer run
        faulty = _elapsed("straggler:rank=3,slow=2.0")
        mb = run_metrics(base.sim)
        mf = run_metrics(faulty.sim)
        assert mf["exposed_comm_s"] > mb["exposed_comm_s"]
        assert mf["faults"] == "straggler:rank=3,slow=2"
        assert "faults" not in mb

    def test_degraded_links_slow_the_run(self, base):
        faulty = _elapsed("degrade:rank=all,bw=0.02")
        assert faulty.elapsed > base.elapsed

    def test_jitter_slows_the_run(self, base):
        # small jitter hides behind compute; this amplitude does not
        faulty = _elapsed("jitter:amp=5e-4;seed:7")
        assert faulty.elapsed > base.elapsed

    def test_poll_delay_never_speeds_the_run(self, base):
        # fewer progression epochs, same charged Test overhead: a
        # descheduled process cannot finish earlier than a healthy one
        faulty = _elapsed("poll:rank=all,factor=8")
        assert faulty.elapsed >= base.elapsed

    def test_sim_result_carries_the_fault_key(self):
        spec = parse_faults("straggler:rank=1,slow=3;seed:9")
        with injected_faults(spec):
            result, _ = run_case("NEW", PLAT, SHAPE)
        assert result.sim.faults == spec.key()

    def test_fault_free_sim_result_has_empty_key(self, base):
        assert base.sim.faults == ""


class TestEngineWiring:
    def test_engine_accepts_spec_string(self):
        engine = Engine(4, PLAT, faults="straggler:rank=2,slow=2")
        assert engine.cpu_scale_of(2) == 2.0
        assert engine.cpu_scale_of(0) == 1.0

    def test_engine_without_faults_has_no_model(self):
        engine = Engine(4, PLAT)
        assert engine.faults is None
        assert engine.cpu_scale_of(3) == 1.0

    def test_fault_counters_flow_into_the_registry(self):
        def prog(ctx):
            req = ctx.comm.ialltoall(32 * 1024)
            ctx.progress_phases(((0.003, 4, "compute"),), [req])
            yield from ctx.comm.co_wait(req)

        with scoped_registry() as reg:
            with injected_faults("jitter:amp=1e-6;seed:3"):
                run_spmd(4, prog, PLAT)
        assert reg.value("faults_runs_total") == 1
        assert reg.value("faults_latency_draws_total") > 0
        assert reg.value("faults_extra_latency_seconds_total") > 0

    def test_no_fault_counters_without_faults(self):
        def prog(ctx):
            req = ctx.comm.ialltoall(32 * 1024)
            ctx.progress_phases(((0.003, 4, "compute"),), [req])
            yield from ctx.comm.co_wait(req)

        with scoped_registry() as reg:
            run_spmd(4, prog, PLAT)
        assert reg.value("faults_runs_total") is None
