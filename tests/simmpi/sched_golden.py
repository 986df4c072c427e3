"""Golden fixture for the engine's scheduler on SPMD programs.

Most cases build a seeded generator SPMD program (:func:`make_prog`): a
mix of compute, non-blocking all-to-alls, compute phases that progress
them (:meth:`~repro.simmpi.comm.SimContext.progress_phases`), one-test
polls, waits and blocking all-to-alls over 2 to 16 ranks.  Each case
runs its program and records what a change to the scheduler must not
move:

* ``elapsed`` — the virtual makespan (``float.hex``),
* ``results`` — every rank's log of poll and wait clocks, reduced
  totals and gathered values (floats as ``float.hex``),
* ``by_label`` — every rank's per-label virtual seconds (``float.hex``),
* ``sched`` — all three scheduler counters, and
* ``events_sha`` — a digest of every rank's event timeline, from a
  second run with ``record_events=True``.

Eight seeds run fault-free and two under the seeded spec :data:`FAULTS`
(straggler, jitter and poll delay).  Hand-written scenarios
(:data:`SCENARIOS`: a progressed and polled all-to-all, directly built
sub-communicators and the pencil pipeline) are cases too.

The simulator's only blocking primitive is the all-to-all wait, so the
programs use nothing else.  ``OPS`` keeps the slots of the synchronizing
collectives and the ``MPI_Test`` poll it once drew, with the same RNG
draws: a barrier is a zero-byte ``co_alltoall``, an allreduce or
allgather a ``co_alltoall`` whose payload is reduced or listed locally,
and a poll a one-test ``progress_phases`` phase.  The file was
recaptured with those programs on the code that still had the
collectives; only the pencil cases' ``sched`` counters moved when pencil
stopped splitting its communicators at run time.

Regenerate with ``PYTHONPATH=src python -m tests.simmpi.sched_golden``;
``tests/simmpi/test_sched_golden.py`` compares the engine with the
committed file.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from repro.faults import injected_faults
from repro.machine import UMD_CLUSTER
from repro.simmpi import Communicator, run_spmd
from tests.core.payload_golden import events_digest

FIXTURE = Path(__file__).with_name("sched_golden.json")

OPS = (
    "compute",
    "alltoall",
    "progress",
    "poll",
    "wait",
    "barrier",
    "allreduce",
    "allgather",
)

#: virtual seconds of the compute phase a poll makes its one MPI_Test in
POLL_SECONDS = 1e-5

#: the seeded fault spec the faulted cases run under
FAULTS = "straggler:rank=1,slow=1.7;jitter:amp=0.2;poll:rank=0,factor=3;seed:5"


def make_prog(seed: int, nops: int):
    """Build a deterministic generator SPMD program from ``seed``.

    Every rank draws from an identically-seeded RNG, so all ranks agree
    on the op sequence (SPMD-correct); rank-dependence enters only
    through deterministic functions of ``ctx.rank``.
    """

    def prog(ctx):
        rng = random.Random(seed * 7919 + 17)
        comm = ctx.comm
        pending = []
        log = []
        for i in range(nops):
            op = OPS[rng.randrange(len(OPS))]
            if op == "compute":
                base = rng.uniform(1e-5, 1e-3)
                ctx.compute(base * (1.0 + 0.1 * ctx.rank), "Comp")
            elif op == "alltoall":
                nb = rng.randrange(1 << 10, 1 << 16)
                pending.append(comm.ialltoall([nb] * ctx.size))
            elif op == "progress":
                dur = rng.uniform(1e-4, 1e-3)
                total = sum(rng.randrange(1, 5) for _ in pending)
                ctx.progress_phases(((dur, total, "Prog"),), pending)
            elif op == "poll" and pending:
                ctx.progress_phases(((POLL_SECONDS, 1, "Poll"),), pending[:1])
                log.append(("poll", i, ctx.now))
            elif op == "wait" and pending:
                yield from comm.co_wait(pending.pop(0))
                log.append(("wait", i, ctx.now))
            elif op == "barrier":
                yield from comm.co_alltoall(0)
            elif op == "allreduce":
                got = yield from comm.co_alltoall(
                    8, payload=[ctx.rank + i] * ctx.size
                )
                log.append(("allreduce", i, sum(got)))
            elif op == "allgather":
                # draws nothing, so the RNG stream (and with it every
                # program that never picks this op) stays as it was
                got = yield from comm.co_alltoall(
                    2048, payload=[(ctx.rank, i)] * ctx.size
                )
                log.append(("allgather", i, got))
        while pending:
            yield from comm.co_wait(pending.pop(0))
        yield from comm.co_alltoall(0)
        log.append(("final", ctx.now))
        return tuple(log)

    return prog


# -- hand-written scenarios -------------------------------------------------


def prog_compute(ctx):
    ctx.compute(0.001 * (ctx.rank + 1), "work")
    return ctx.now
    yield  # pragma: no cover - marks this as a generator function


def prog_overlap(ctx):
    """Ialltoall progressed during compute, finished with co_wait — the
    paper's manual-progression pattern — then a second one progressed
    by one-test compute phases before its wait."""
    comm = ctx.comm
    req = comm.ialltoall(1 << 22)
    ctx.progress_phases(((0.004, 8, "FFTy"),), [req])
    yield from comm.co_wait(req, label="Wait")
    req2 = comm.ialltoall(1 << 20)
    for _ in range(4):
        ctx.progress_phases(((0.0002, 1, "poll-work"),), [req2])
    yield from comm.co_wait(req2)
    return ctx.now


def prog_split(ctx):
    """Even and odd ranks on directly built sub-communicators: an
    alltoall on each whose payload is summed locally, then a world
    zero-byte alltoall."""
    color = ctx.rank % 2
    half = Communicator(ctx, list(range(color, ctx.size, 2)), 1 + color)
    got = yield from half.co_alltoall(8, payload=[ctx.rank] * half.size)
    yield from ctx.comm.co_alltoall(0)
    return half.size, sum(got)


def prog_pencil(ctx):
    from repro.core.pencil import PencilFFT3D

    plan = PencilFFT3D(ctx, (32, 32, 32))
    yield from plan.steps(None)
    return ctx.now


SCENARIOS = {prog.__name__: prog for prog in (
    prog_compute, prog_overlap, prog_split, prog_pencil,
)}


def cases() -> list[dict]:
    """The fixture's case list, in a fixed order."""
    out = [{"id": f"seed{seed}", "seed": seed, "nprocs": 2 + (seed * 5) % 15,
            "nops": 14, "faults": None} for seed in range(8)]
    out += [{"id": f"seed{seed}-faults", "seed": seed, "nprocs": 4,
             "nops": 12, "faults": FAULTS} for seed in (3, 6)]
    for name, nprocs in (("prog_compute", 4), ("prog_overlap", 8),
                         ("prog_split", 6), ("prog_pencil", 4),
                         ("prog_pencil", 6)):
        out.append({"id": f"{name}-{nprocs}", "program": name,
                    "nprocs": nprocs, "faults": None})
    return out


def encode(value):
    """JSON form of a rank result: floats as ``float.hex``, tuples as lists."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    return value


def run(case: dict) -> dict:
    """Run one case and return its recorded quantities."""
    prog = (SCENARIOS[case["program"]] if "program" in case
            else make_prog(case["seed"], case["nops"]))
    with injected_faults(case["faults"]):
        sim = run_spmd(case["nprocs"], prog, UMD_CLUSTER)
        recorded = run_spmd(case["nprocs"], prog, UMD_CLUSTER,
                            record_events=True)
    return {
        "elapsed": sim.elapsed.hex(),
        "results": encode(sim.results),
        "by_label": [sorted([k, v.hex()] for k, v in tr.by_label.items())
                     for tr in sim.traces],
        "sched": {"handoffs": sim.stats.handoffs,
                  "probe_polls": sim.stats.probe_polls,
                  "wakeups": sim.stats.wakeups},
        "events_sha": events_digest(recorded.traces),
    }


def main(argv: list[str]) -> None:
    rows = ",\n".join(json.dumps(dict(case, **run(case))) for case in cases())
    FIXTURE.write_text(f'{{"platform": "UMD-Cluster", "cases": [\n{rows}\n]}}\n')
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main(sys.argv[1:])
