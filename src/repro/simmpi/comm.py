"""MPI-like communicator API over the discrete-event engine.

:class:`SimContext` is the per-rank handle an SPMD function receives; its
``comm`` attribute is the world :class:`Communicator`.  The API is the
three calls the paper's pipelines make (Section 3.3):

* ``ialltoall`` (scalar or per-peer byte counts — ``MPI_Ialltoall(v)``)
  returning :class:`~repro.simmpi.request.AlltoallRequest`;
* :meth:`SimContext.progress_phases` — compute phases with ``MPI_Test``
  calls spread over them, which progress the in-flight requests;
* ``co_wait`` (``MPI_Wait``); ``co_alltoall`` posts and waits at once
  (the FFTW baseline).

A sub-communicator is a :class:`Communicator` built directly over its
group of world ranks with an id its members share (the 2-D
decomposition builds its row and column communicators this way).

The one *blocking* operation, ``co_wait``, is a ``co_`` coroutine,
delegated to with ``yield from`` inside a generator SPMD function: it
yields a block command to the scheduler in :mod:`repro.simmpi.engine`.

Payloads are optional everywhere: in virtual mode callers pass byte
counts only, in real mode actual numpy arrays travel with the messages.
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

import numpy as np

from ..errors import MPIUsageError, SimulationError
from .engine import Engine
from .request import AlltoallRequest


class SimContext:
    """Per-rank handle: clock control, tracing, and the world comm."""

    def __init__(self, engine: Engine, rank: int) -> None:
        self.engine = engine
        self.rank = rank
        self.size = engine.nprocs
        self.platform = engine.platform
        self.cpu = engine.platform.cpu
        self.comm: "Communicator" = None  # set by Engine.run
        # Hot-path bindings: the rank record (clock reads), the test-call
        # overhead, and the per-run fault knobs, all constant for the
        # lifetime of this context.
        self._r = engine.ranks[rank]
        self._trace = self._r.trace  # never reassigned by the engine
        self._test_overhead = self.cpu.test_overhead
        faults = engine.faults
        self._cpu_stretch = (
            faults.cpu_scale_of(rank)
            if faults is not None and faults.has_cpu_faults
            else None
        )
        self._poll_faults = faults is not None and faults.has_poll_faults
        self._eff_tests = faults.effective_tests if self._poll_faults else None

    @property
    def now(self) -> float:
        """Current virtual time of this rank."""
        return self._r.clock

    def compute(
        self, seconds: float, label: str = "compute",
        attrs: dict | None = None,
    ) -> None:
        """Advance virtual time by ``seconds`` of local computation."""
        self.engine.advance(self.rank, seconds, label, attrs)

    def progress_phases(
        self,
        phases: Sequence[tuple[float, int, str]],
        live: Sequence[AlltoallRequest],
        attrs: dict | None = None,
    ) -> None:
        """Run consecutive ``(seconds, test_total, label)`` compute
        phases while manually progressing the ``live`` request window.

        During each phase the rank calls MPI_Test ``test_total`` times
        in total, spread over the window's unfinished requests (the
        first ``test_total % n`` get one extra) — the paper's Algorithms
        2-3, where ``Fy/Fp/Fu/Fx`` tests on the ``W`` in-flight tiles are
        spread over each computation phase.  Each request's share posts
        rounds exactly as :meth:`AlltoallRequest.progress_segment` does
        over the phase's window; the clock then advances by ``seconds``
        under ``label`` and by the test-call overhead under ``"Test"``.

        Injected faults act here: a straggler's phase stretches by its
        CPU slowdown (the test epochs spread over the stretched window),
        and a poll-delay fault thins each request's *progression* epochs
        to ``ntests / factor`` — a descheduled process enters the MPI
        library late and irregularly.  Test-call overhead stays charged
        at the requested count, so a poll fault can only slow a run.

        Never suspends.  ``progress_segment``'s posting loop is inlined
        here, and segments that provably cannot post a round (all sends
        already injected, or a zero-length window) are skipped with only
        their library-entry counter bumped.  This runs twice per tile and
        dominates pipeline overhead; ``tests/core/test_pipeline.py``
        holds it to the ``progress_segment`` + ``Engine.advance``
        spelling.
        """
        r = self._r
        stretch = self._cpu_stretch
        eff_of = self._eff_tests
        rank = self.rank
        trace = self._trace
        by_label = trace.by_label
        events = trace.events
        for seconds, total, label in phases:
            if seconds < 0:
                raise SimulationError(
                    f"negative time advance {seconds} ({label})"
                )
            t0 = r.clock
            duration = seconds if stretch is None else seconds * stretch
            total_tests = 0
            if total > 0:
                if len(live) == 1:
                    # Window of one (the overlap pipeline's common case):
                    # reuse the caller's list instead of copying it.
                    q0 = live[0]
                    lv = live if q0 is not None and not q0.consumed else ()
                else:
                    lv = [q for q in live if q is not None and not q.consumed]
                if lv:
                    base, extra = divmod(total, len(lv))
                    positive = duration > 0
                    for i, q in enumerate(lv):
                        ntests = base + 1 if i < extra else base
                        if ntests <= 0:
                            continue
                        total_tests += ntests
                        eff = ntests if eff_of is None else eff_of(rank, ntests)
                        if eff <= 0:
                            continue
                        if positive and q._next < q._n:
                            # Same closed-form epoch precheck progress_segment
                            # opens with (same expressions, so same floats):
                            # fall through to posting only when an epoch in
                            # this window can actually post a round.
                            gap = duration / (eff + 1)
                            ready = q._round_ready
                            kf = (ready - t0) / gap
                            kf = int(kf) + (kf > int(kf))
                            if kf < 1:
                                kf = 1
                            q.progress_entries += 1
                            if kf > eff:
                                continue
                            # Inlined body of AlltoallRequest.progress_segment
                            # (verbatim expressions — any rearrangement could
                            # shift a posted time by a ULP).  The method is
                            # kept as the readable reference.
                            (rank_w, rate_q, lat, thr, infl, sc, pending, row,
                             cnts, cmax, np_, waiters, notify, jdraw) = q._hot
                            fabric = q.fabric
                            rdv = 2.0 * lat + 0.5 * gap
                            nic = float(fabric.nic_free[rank_w])
                            total_bytes = 0
                            k = 0  # last used epoch (1-based over 1..eff)
                            own = q._own_finish
                            n_q = q._n
                            nxt = q._next
                            while nxt < n_q:
                                k_needed = (ready - t0) / gap
                                k_needed = int(k_needed) + (k_needed > int(k_needed))
                                if k_needed <= k:
                                    k_needed = k + 1
                                if k_needed > eff:
                                    break  # no more library entries here
                                k = k_needed
                                t_post = t0 + k * gap
                                if t_post > nic:
                                    nic = t_post
                                stop = nxt + infl
                                if stop > n_q:
                                    stop = n_q
                                round_max = 0.0
                                for j in range(nxt, stop):
                                    d = pending[j]
                                    sz = sc[d]
                                    nic += sz / rate_q
                                    a = nic + lat + (rdv if sz > thr else 0.0)
                                    if jdraw is not None:
                                        a += jdraw(rank_w)
                                    row[d] = a
                                    cnts[d] += 1
                                    if a > cmax[d]:
                                        cmax[d] = a
                                    if cnts[d] >= np_ and waiters:
                                        w = waiters.pop(d, None)
                                        if w is not None and notify is not None:
                                            notify(w)
                                    total_bytes += sz
                                    if a > round_max:
                                        round_max = a
                                nxt = stop
                                if round_max > own:
                                    own = round_max
                                ready = own
                            q._next = nxt
                            fabric.nic_free[rank_w] = nic
                            fabric.bytes_injected[rank_w] += total_bytes
                            q._own_finish = own
                            q._round_ready = ready
                        else:
                            # progress_segment would bump the entry counter
                            # and return without touching any other state
                            q.progress_entries += 1
            # Inlined Engine.advance pair (phase label + Test overhead):
            # same IEEE operations in the same order, so clocks and by_label
            # totals are bit-identical to the two-call spelling.
            t1 = t0 + duration
            by_label[label] = by_label.get(label, 0.0) + (t1 - t0)
            if events is not None:
                events.append((t0, t1, label))
                if trace.attrs is not None:
                    trace.attrs.append(attrs)
            if total_tests:
                dt = total_tests * self._test_overhead
                if stretch is not None:
                    dt *= stretch
                t2 = t1 + dt
                by_label["Test"] = by_label.get("Test", 0.0) + (t2 - t1)
                if events is not None:
                    events.append((t1, t2, "Test"))
                    if trace.attrs is not None:
                        trace.attrs.append(None)
                r.clock = t2
            else:
                r.clock = t1


class Communicator:
    """A group of simulated ranks with MPI-style operations.

    ``group`` lists the members' world ranks in communicator-rank order;
    ``comm_id`` must be the same on every member and distinct from every
    other communicator's (the world's is 0).
    """

    def __init__(
        self, ctx: SimContext, group: list[int], comm_id: Hashable
    ) -> None:
        self.ctx = ctx
        self.engine = ctx.engine
        self.fabric = ctx.engine.fabric
        self.group = group
        self.comm_id = comm_id
        if ctx.rank not in group:
            raise MPIUsageError(f"rank {ctx.rank} not in group {group}")
        self.rank = group.index(ctx.rank)
        self.size = len(group)
        #: id -> (counts object, validated int64 array).  Keeping the
        #: original object referenced pins its id, so a hit can never be
        #: a recycled address (see _alltoall_counts).
        self._counts_memo: dict[int, tuple[Any, np.ndarray]] = {}
        #: CPU cost of posting a nonblocking collective (constant here)
        self._post_cost = self.fabric.net.post_cost(self.size)
        self._tracer = self.engine.tracer  # fixed at engine construction

    # ------------------------------------------------------------------ utils

    def _coll_key(self) -> tuple[Hashable, int]:
        seqs = self.ctx._r.coll_seq
        seq = seqs.get(self.comm_id, 0)
        seqs[self.comm_id] = seq + 1
        return (self.comm_id, seq)

    # ------------------------------------------------------------------ wait

    def co_wait(self, req: AlltoallRequest, label: str = "Wait"):
        """Block until ``req`` completes (MPI_Wait); returns the received
        chunks in real-payload mode, else ``None``."""
        if req.consumed:
            raise MPIUsageError("request already waited on")
        req.enter_wait(self.ctx._r.clock)
        if req.completion_probe() is None:
            # Event-driven wakeup: the peer whose round completes our
            # arrival row notifies the engine (no polling sweeps).
            req.op.waiters[req.rank] = self.group[self.rank]
        done = yield ("block", req.completion_probe, label)
        req.consumed = True
        return req.on_complete(done)

    # -------------------------------------------------------------- alltoall

    def _alltoall_counts(self, counts) -> tuple[np.ndarray, list[int], int | None]:
        """Validate a counts argument, memoized per argument object.

        Returns the validated int64 array, its plain-list form (the
        request's posting loops index the list), and the uniform entry
        value when all counts are equal (``None`` otherwise — lets the
        request's flush path skip re-deriving uniformity).  Pipelines
        pass the
        same (cached) count vectors for every tile, so full validation
        runs once per distinct object; the memo keeps the original
        object alive, making the id-keyed hit safe.  A caller that
        mutates a previously passed vector in place keeps the old
        validated copy — in-tree callers never do.
        """
        memo = self._counts_memo
        hit = memo.get(id(counts))
        if hit is not None and hit[0] is counts:
            return hit[1], hit[2], hit[3]
        arr = np.asarray(counts, dtype=np.int64)
        if arr.ndim == 0:
            arr = np.full(self.size, int(arr), dtype=np.int64)
        if arr.shape != (self.size,):
            raise MPIUsageError(
                f"alltoall counts must be scalar or length {self.size}, got {arr.shape}"
            )
        if (arr < 0).any():
            raise MPIUsageError("negative byte count in alltoall")
        if len(memo) > 64:  # callers passing fresh lists can't grow it
            memo.clear()
        lst = arr.tolist()
        uni = lst[0] if lst else None
        for v in lst:
            if v != uni:
                uni = None
                break
        memo[id(counts)] = (counts, arr, lst, uni)
        return arr, lst, uni

    def ialltoall(
        self,
        sendcounts,
        recvcounts=None,
        payload: list[Any] | None = None,
    ) -> AlltoallRequest:
        """Post a non-blocking all-to-all(v).

        ``sendcounts``/``recvcounts`` are bytes per peer (scalar = uniform
        — plain ``MPI_Ialltoall``; vector = ``MPI_Ialltoallv``).  Both
        are validated; the timing model follows the sends.
        ``payload`` optionally carries one object per destination (real
        mode).  The returned request is progressed by
        :meth:`SimContext.progress_phases` and finished by ``co_wait``.
        """
        send, send_list, send_uniform = self._alltoall_counts(sendcounts)
        if recvcounts is not None:
            self._alltoall_counts(recvcounts)
        if payload is not None and len(payload) != self.size:
            raise MPIUsageError(
                f"payload must have one entry per rank ({self.size}), got {len(payload)}"
            )
        key = self._coll_key()
        op = self.fabric.get_coll(key, self.size)
        req = AlltoallRequest(
            self.fabric, op, self.rank, self.group, send_list, payload,
            uniform_size=send_uniform,
        )
        attrs = None
        if self._tracer is not None:
            attrs = {"send_bytes": int(send.sum()), "peers": self.size}
        ctx = self.ctx
        # Inlined Engine.advance(rank, post_cost, "Ialltoall", attrs):
        # same IEEE operations in the same order (see progress_phases).
        r = ctx._r
        stretch = ctx._cpu_stretch
        dt = self._post_cost if stretch is None else self._post_cost * stretch
        trace = ctx._trace
        t0 = r.clock
        t1 = t0 + dt
        by_label = trace.by_label
        by_label["Ialltoall"] = by_label.get("Ialltoall", 0.0) + (t1 - t0)
        events = trace.events
        if events is not None:
            events.append((t0, t1, "Ialltoall"))
            if trace.attrs is not None:
                trace.attrs.append(attrs)
        r.clock = t1
        req.post(t1)
        return req

    def co_alltoall(self, sendcounts, recvcounts=None, payload: list[Any] | None = None):
        """Blocking all-to-all(v): post then wait (library-resident, so it
        progresses at full NIC rate — the FFTW-baseline communication)."""
        req = self.ialltoall(sendcounts, recvcounts, payload)
        return (yield from self.co_wait(req, label="A2A"))
