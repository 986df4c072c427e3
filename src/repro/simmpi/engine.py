"""Deterministic discrete-event engine for the simulated cluster.

Each simulated rank is a *generator* — the SPMD function, called once
per rank — resumed by ``gen.send`` on the scheduler's own stack: no
threads, no locks, no context switches.  Its one blocking operation is
the all-to-all wait (``co_wait``, also behind ``co_alltoall``), which
yields a *block* command to the scheduler: a probe returning the
operation's completion time once already-posted events determine it,
or ``None`` while they do not.  Exactly one rank is awake at any
moment: the scheduler always resumes the rank with the smallest
*virtual* clock.  This single-token, min-time policy gives conservative
parallel-discrete-event correctness — when a rank at virtual time ``t``
runs, every peer's clock is already ``>= t``, so every message that
could influence it by time ``t`` has been posted — and bit-for-bit
determinism (ties break by rank id).

Virtual time advances only through :meth:`SimContext.compute` /
communication calls; real numpy work done by the rank costs *zero*
virtual time.

Two scheduling liberties keep the simulation fast without breaking the
model: (1) a running rank keeps the token through local compute and
non-blocking communication — every cross-rank interaction is a
*timestamped final value* (NIC schedules, message arrival times), so
running ahead of a peer's virtual clock cannot change any outcome that a
blocking operation observes; (2) blocked ranks are woken event-driven —
the peer whose send completes an all-to-all arrival row pushes the
waiter onto a completion-time heap instead of the scheduler polling.
Every rank starts ready at clock 0 and never becomes ready again once
it blocks, so after each rank's first grant (in rank order) every pick
is a pop of that heap.

A *rank-symmetric* run steps only rank 0.  When every rank runs the
same program on the same counts with no fault model, rank r's clocks
are rank 0's bit for bit: the network is cyclic (rank r sends to r+1,
r+2, ... at one NIC rate), so the column of arrivals a rank receives
holds the values of the row it sends, and the request takes its
completion from its own row.  The caller decides symmetry (it knows the
program); the p-rank results and traces are then p references to rank
0's, and ``sim_symmetric_runs_total`` counts the run.  The scheduler
counters report the one rank's handoffs.

One order-preserving fast path skips a scheduler round trip whose
outcome is already known: a block whose completion is determined at
the rank's own clock while it is provably still the next pick returns
at once.  It only saves handoffs and wakeups; the golden fixtures
``tests/simmpi/sched_golden.json`` and ``tests/core/payload_golden.json``
pin the clocks, results and counters the scheduler produces.
"""

from __future__ import annotations

import heapq
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import DeadlockError, SimulationError
from ..faults import FaultSpec, current_faults, parse_faults
from ..machine.platforms import Platform
from ..obs import registry as metrics
from .fabric import Fabric

#: the engine command a rank coroutine yields to the scheduler
_CMD_BLOCK = "block"


@dataclass
class SchedStats:
    """Scheduler instrumentation for one engine run.

    ``handoffs`` counts rank resumptions (token grants); ``probe_polls``
    counts completion-probe invocations made by the scheduler;
    ``wakeups`` counts blocked→runnable transitions (a rank leaving a
    ``wait`` because its completion time became determinable).  They are
    deterministic, so the golden fixtures pin them exactly.  ``backend``
    is always ``"tasks"`` (the label the metrics registry publishes).
    """

    backend: str = ""
    handoffs: int = 0
    probe_polls: int = 0
    wakeups: int = 0


@dataclass
class RankTrace:
    """Per-rank accounting of virtual time by step label.

    ``events`` (when recorded) keeps its historical ``(t0, t1, label)``
    3-tuple shape; per-event attributes from instrumented callers (tile
    index, byte counts) live in the index-aligned ``attrs`` list so
    existing consumers of ``events`` are unaffected.
    """

    by_label: dict[str, float] = field(default_factory=dict)
    events: list[tuple[float, float, str]] | None = None
    attrs: list[dict | None] | None = None

    def add(
        self, t0: float, t1: float, label: str, attrs: dict | None = None
    ) -> None:
        """Record one event and accumulate its span under ``label``."""
        if t1 < t0:
            raise SimulationError(f"negative-duration event {label}: {t0}..{t1}")
        self.by_label[label] = self.by_label.get(label, 0.0) + (t1 - t0)
        if self.events is not None:
            self.events.append((t0, t1, label))
            if self.attrs is not None:
                self.attrs.append(attrs)


class _Rank:
    """Scheduler-side bookkeeping for one simulated rank."""

    __slots__ = (
        "idx", "clock", "state", "probe", "probe_label",
        "gen", "block_t0", "result", "exc", "trace", "coll_seq",
    )

    def __init__(self, idx: int, record_events: bool) -> None:
        self.idx = idx
        self.clock = 0.0
        self.state = "ready"  # ready | running | blocked | done
        self.probe: Callable[[], float | None] | None = None
        self.probe_label = ""
        self.gen = None  # the rank's SPMD generator
        self.block_t0: float | None = None  # pending-block entry time
        self.result: Any = None
        self.exc: BaseException | None = None
        self.trace = RankTrace(
            events=[] if record_events else None,
            attrs=[] if record_events else None,
        )
        self.coll_seq: dict[int, int] = {}  # per-communicator collective counter


class Engine:
    """Runs an SPMD function over ``nprocs`` simulated ranks."""

    def __init__(
        self,
        nprocs: int,
        platform: Platform,
        record_events: bool = False,
        tracer=None,
        faults: "FaultSpec | str | None" = None,
        symmetric: bool = False,
    ) -> None:
        """``tracer`` (a :class:`repro.obs.Tracer`, or ``None``) is what
        instrumented callers check to decide whether to build per-event
        attributes.  It never influences a scheduling decision or a
        virtual clock.  The run's counts go to the current metrics
        registry either way.

        ``faults`` is a :class:`~repro.faults.FaultSpec` (or grammar
        string) perturbing the simulated machine; ``None`` (the default)
        picks up the ambient spec installed with
        :func:`repro.faults.injected_faults`.  Pass an empty spec to
        force a fault-free run inside an injected scope.

        ``symmetric`` runs only rank 0's coroutine and stands it for all
        ``nprocs`` ranks (see the module docstring).  The caller must
        know every rank would compute rank 0's clocks; a fault model,
        ambient or passed, breaks that and is refused."""
        self.nprocs = nprocs
        self.platform = platform
        self.tracer = tracer
        if faults is None:
            faults = current_faults()
        elif isinstance(faults, str):
            faults = parse_faults(faults)
        self.faults = faults.model(nprocs) if faults is not None else None
        #: per-rank CPU slowdown factors, or None (the no-faults fast path
        #: pays one `is None` check per advance and nothing else)
        self._cpu_scale: list[float] | None = (
            [float(s) for s in self.faults.cpu_scale]
            if self.faults is not None and self.faults.has_cpu_faults
            else None
        )
        if symmetric and self.faults is not None:
            raise SimulationError("a fault model breaks rank symmetry")
        self.symmetric = symmetric
        self.fabric = Fabric(platform, nprocs, faults=self.faults,
                             symmetric=symmetric)
        #: the ranks that run: all of them, or rank 0 alone when symmetric
        self.ranks = [_Rank(i, record_events)
                      for i in range(1 if symmetric else nprocs)]
        self.stats = SchedStats(backend="tasks")
        #: (completion time, idx) heap of blocked ranks whose completion
        #: is already determinable (fed by Fabric.notify_rank / blocks)
        self._ready_heap: list[tuple[float, int]] = []
        self.fabric.notify_rank = self._notify

    def _notify(self, world_rank: int) -> None:
        """A blocked rank's pending wait became determinable."""
        r = self.ranks[world_rank]
        if r.state == "blocked":
            self.stats.probe_polls += 1
            t = max(r.probe(), r.clock)
            heapq.heappush(self._ready_heap, (t, world_rank))

    # -- rank-side primitives (called while holding the token) ---------------

    def now(self, rank: int) -> float:
        """Virtual clock of ``rank``."""
        return self.ranks[rank].clock

    def cpu_scale_of(self, rank: int) -> float:
        """CPU slowdown factor applied to ``rank`` (1.0 without faults)."""
        return self._cpu_scale[rank] if self._cpu_scale is not None else 1.0

    def advance(
        self, rank: int, dt: float, label: str, attrs: dict | None = None
    ) -> None:
        """Advance ``rank``'s clock by ``dt`` seconds (keeps the token:
        local work cannot affect peers except through timestamped posts,
        so no reschedule is needed until the rank blocks).  ``attrs``
        annotates the traced event (recorded runs only).

        Under an injected straggler fault, CPU time charged on a slowed
        rank is stretched by its slowdown factor here — the single choke
        point through which all modeled CPU work flows."""
        if dt < 0:
            raise SimulationError(f"negative time advance {dt} ({label})")
        if self._cpu_scale is not None:
            dt *= self._cpu_scale[rank]
        # Inlined RankTrace.add (hottest engine entry point): same
        # arithmetic — the accumulated span is (t1 - t0), not dt, so
        # totals stay bit-identical with the traced-event spans.
        r = self.ranks[rank]
        trace = r.trace
        t0 = r.clock
        t1 = t0 + dt
        by_label = trace.by_label
        by_label[label] = by_label.get(label, 0.0) + (t1 - t0)
        if trace.events is not None:
            trace.events.append((t0, t1, label))
            if trace.attrs is not None:
                trace.attrs.append(attrs)
        r.clock = t1

    # -- run -----------------------------------------------------------------

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> list[Any]:
        """Execute ``fn(ctx, *args, **kwargs)`` on every rank; returns the
        per-rank return values.  Any rank exception is re-raised.

        ``fn`` must be a generator function whose blocking operations
        are ``yield from`` of the comm layer's ``co_*`` coroutines.
        """
        if not inspect.isgeneratorfunction(fn):
            raise SimulationError(
                "the engine runs generator SPMD functions; write the "
                "program's blocking calls as 'yield from' of the co_* forms"
            )
        from .comm import Communicator, SimContext  # cycle-free at runtime

        world = list(range(self.nprocs))
        try:
            for r in self.ranks:
                ctx = SimContext(self, r.idx)
                ctx.comm = Communicator(ctx, group=world, comm_id=0)
                r.gen = fn(ctx, *args, **kwargs)
            self._schedule()
            return self._collect()
        finally:
            metrics.publish_sched_stats(self.stats)
            if self.symmetric:
                metrics.count("sim_symmetric_runs_total",
                              help="Simulated runs that stepped rank 0 "
                                   "for all p ranks.")
            if self.faults is not None:
                metrics.count("faults_runs_total",
                              help="Simulated runs under a fault plan.")
                for name, value in self.faults.counters().items():
                    if value:
                        metrics.count(name, value)

    def _collect(self) -> list[Any]:
        for r in self.ranks:
            if r.exc is not None:
                raise SimulationError(f"rank {r.idx} failed") from r.exc
        return self._per_rank([r.result for r in self.ranks])

    def _per_rank(self, values: list) -> list:
        """One entry per rank: a symmetric run's one value ``nprocs``
        times (references, not copies)."""
        return values * self.nprocs if self.symmetric else values

    # -- scheduling ----------------------------------------------------------

    def _resume(self, r: _Rank) -> None:
        """Grant ``r`` the token: run its generator until it blocks or
        finishes."""
        r.state = "running"
        stats = self.stats
        stats.handoffs += 1
        value = None
        if r.block_t0 is not None:
            # Waking from a block: the scheduler set the clock to the
            # completion time; account the blocked interval.
            r.trace.add(r.block_t0, r.clock, r.probe_label)
            value = r.clock
            r.block_t0 = None
        send = r.gen.send
        while True:
            try:
                cmd = send(value)
            except StopIteration as stop:
                r.result = stop.value
                r.state = "done"
                return
            except BaseException as exc:
                r.exc = exc
                r.state = "done"
                return
            if cmd[0] != _CMD_BLOCK:
                r.exc = SimulationError(f"unknown engine command {cmd[0]!r}")
                r.state = "done"
                return
            probe, label = cmd[1], cmd[2]
            stats.probe_polls += 1
            t_ready = probe()
            t0 = r.clock
            if (
                t_ready is not None
                and t_ready <= t0
                and self._next_is(t0, r.idx)
            ):
                # Immediate completion while still the scheduler's next
                # pick: parking the rank would only re-resume it at the
                # same clock, so re-send the resolved completion without
                # the round trip.  Order-preserving; saves one handoff
                # and one wakeup.
                r.trace.add(t0, t0, label)
                value = t0
                continue
            r.block_t0 = t0
            r.state = "blocked"
            r.probe = probe
            r.probe_label = label
            if t_ready is not None:
                heapq.heappush(self._ready_heap, (max(t_ready, t0), r.idx))
            # else: the peer whose post completes the wait notifies
            return

    def _next_is(self, c: float, idx: int) -> bool:
        """Would the scheduler resume rank ``idx`` next at clock ``c`` if
        it blocked with an already-determined completion at ``c``?

        False while a rank still waits for its first grant (it is ready
        at clock 0, and ready-vs-woken ties keep the ready rank); ranks
        start in rank order, so that is while the last rank is ready.
        Otherwise true only when no live completion-heap entry precedes
        ``(c, idx)`` (ties break by the heap's ``(t, idx)`` order).
        Collapsing the park/resume round trip is then provably
        order-preserving.  Stale heap entries discarded here would be
        discarded by the scheduler anyway."""
        ranks = self.ranks
        if ranks[-1].state == "ready":
            return False
        rh = self._ready_heap
        while rh:
            t, i = rh[0]
            if ranks[i].state != "blocked":
                heapq.heappop(rh)
                continue
            return t > c or (t == c and i > idx)
        return True

    def _schedule(self) -> None:
        ranks = self.ranks
        stats = self.stats
        resume = self._resume
        # Every rank starts ready at clock 0, so the min-time order with
        # ties by rank id grants each its first turn in rank order: no
        # blocked rank can wake before clock 0.  A resumed rank returns
        # blocked or done, never ready, so from then on every pick is
        # the earliest completion on the heap.
        for r in ranks:
            resume(r)
            if r.exc is not None:
                # Fail fast: remaining ranks are parked; run() reports.
                return
        while True:
            best, best_t = self._pick_blocked()
            if best is None:
                if all(r.state == "done" for r in ranks):
                    return
                self._raise_deadlock()
            best.clock = best_t
            best.probe = None
            stats.wakeups += 1
            resume(best)
            if best.exc is not None:
                return

    def _pick_blocked(self) -> tuple["_Rank | None", float | None]:
        """Earliest-completing blocked rank off the event-fed completion
        heap (ties by rank id), or (None, None)."""
        ranks = self.ranks
        rh = self._ready_heap
        while rh:
            t, idx = heapq.heappop(rh)
            r = ranks[idx]
            if r.state == "blocked":
                return r, t
        return None, None

    def _raise_deadlock(self) -> None:
        blocked = [
            f"rank {r.idx} @t={r.clock:.6f} blocked on {r.probe_label!r}"
            for r in self.ranks
            if r.state == "blocked"
        ]
        raise DeadlockError(
            "simulation deadlock: no rank can make progress\n  " + "\n  ".join(blocked)
        )

    # -- results ---------------------------------------------------------------

    @property
    def final_time(self) -> float:
        """Virtual completion time of the slowest rank."""
        return max(r.clock for r in self.ranks)

    def traces(self) -> list[RankTrace]:
        """Per-rank time accounting, indexed by rank."""
        return self._per_rank([r.trace for r in self.ranks])
