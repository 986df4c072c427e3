"""Golden fixture for the engine's scheduler on SPMD programs.

Most cases build a seeded generator SPMD program (:func:`make_prog`): a
mix of compute, non-blocking all-to-alls, compute phases that progress
them (:meth:`~repro.simmpi.comm.SimContext.progress_phases`), test
polls, waits and the synchronizing collectives (barrier, allreduce,
allgather) over 2 to 16 ranks — only calls the simulator keeps.  Each
case runs its program and records what a change to the scheduler must
not move:

* ``elapsed`` — the virtual makespan (``float.hex``),
* ``results`` — every rank's log of poll flags, wait clocks, reduction
  totals and gathered values (floats as ``float.hex``),
* ``by_label`` — every rank's per-label virtual seconds (``float.hex``),
* ``sched`` — all three scheduler counters, and
* ``events_sha`` — a digest of every rank's event timeline, from a
  second run with ``record_events=True``.

Eight seeds run fault-free and two under the seeded spec :data:`FAULTS`
(straggler, jitter and poll delay).  Hand-written scenarios
(:data:`SCENARIOS`: the synchronizing collectives after skewed compute,
which keep the scheduler's polling sweep pinned, a progressed and
polled all-to-all, sub-communicators and the pencil pipeline's lazy
splits) are cases too.

The committed ``sched_golden.json`` was captured while the engine still
had a thread backend and a switch that turned its scheduling fast paths
off; every case gave the same clocks, results, per-label seconds, events
and probe polls under all four combinations then.  The handoff and
wakeup counters were captured on the coroutine backend with the fast
paths on, the one path the engine keeps.  When the simulator dropped
point-to-point messaging and the rooted collectives, ``OPS`` swapped
``"sendrecv"`` for ``"allgather"`` in the same slot (drawing nothing
from the RNG, so seeds that never picked the slot kept their programs
and entries byte for byte), and ``prog_sync`` replaced the ring,
sendrecv and collectives scenarios.  Seeds 1-5 and 7 and both
``prog_sync`` cases were captured then, on the code before the cut.

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
from repro.simmpi import run_spmd
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
                done, res = yield from comm.co_test(pending[0])
                if done:
                    pending.pop(0)
                log.append(("poll", i, done))
            elif op == "wait" and pending:
                yield from comm.co_wait(pending.pop(0))
                log.append(("wait", i, ctx.now))
            elif op == "barrier":
                yield from comm.co_barrier()
            elif op == "allreduce":
                total = yield from comm.co_allreduce(ctx.rank + i, nbytes=8)
                log.append(("allreduce", i, total))
            elif op == "allgather":
                # draws nothing, so the RNG stream (and with it every
                # program that never picks this op) stays as it was
                gathered = yield from comm.co_allgather(
                    (ctx.rank, i), nbytes=2048
                )
                log.append(("allgather", i, gathered))
        while pending:
            yield from comm.co_wait(pending.pop(0))
        yield from comm.co_barrier()
        log.append(("final", ctx.now))
        return tuple(log)

    return prog


# -- hand-written scenarios -------------------------------------------------


def prog_compute(ctx):
    ctx.compute(0.001 * (ctx.rank + 1), "work")
    return ctx.now
    yield  # pragma: no cover - marks this as a generator function


def prog_sync(ctx):
    """Skewed compute, then the synchronizing collectives.  Their blocks
    have no notification hook, so the scheduler's polling sweep
    (``Engine._pick_blocked``) resolves them."""
    comm = ctx.comm
    ctx.compute(0.0005 * ctx.rank, "skew")
    yield from comm.co_barrier()
    total = yield from comm.co_allreduce(ctx.rank, nbytes=8)
    everything = yield from comm.co_allgather(ctx.now, nbytes=8)
    return total, everything


def prog_overlap(ctx):
    """Ialltoall progressed during compute, finished with co_wait — the
    paper's manual-progression pattern — then a co_test poll loop."""
    comm = ctx.comm
    req = comm.ialltoall(1 << 22)
    ctx.progress_phases(((0.004, 8, "FFTy"),), [req])
    yield from comm.co_wait(req, label="Wait")
    req2 = comm.ialltoall(1 << 20)
    while True:
        flag, _ = yield from comm.co_test(req2)
        if flag:
            break
        ctx.compute(0.0002, "poll-work")
    return ctx.now


def prog_split(ctx):
    comm = ctx.comm
    half = yield from comm.co_split(ctx.rank % 2)
    local_sum = yield from half.co_allreduce(ctx.rank, nbytes=8)
    yield from comm.co_barrier()
    return half.size, local_sum


def prog_pencil(ctx):
    from repro.core.pencil import PencilFFT3D

    plan = PencilFFT3D(ctx, (32, 32, 32))
    yield from plan.steps(None)
    return ctx.now


SCENARIOS = {prog.__name__: prog for prog in (
    prog_compute, prog_sync, prog_overlap, prog_split, prog_pencil,
)}


def cases() -> list[dict]:
    """The fixture's case list, in a fixed order."""
    out = [{"id": f"seed{seed}", "seed": seed, "nprocs": 2 + (seed * 5) % 15,
            "nops": 14, "faults": None} for seed in range(8)]
    out += [{"id": f"seed{seed}-faults", "seed": seed, "nprocs": 4,
             "nops": 12, "faults": FAULTS} for seed in (3, 6)]
    for name, nprocs in (("prog_compute", 4), ("prog_sync", 4),
                         ("prog_sync", 7), ("prog_overlap", 8),
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
