"""The request object for the simulated ``MPI_Ialltoall``.

:class:`AlltoallRequest` models the paper's ``MPI_Ialltoall`` with
*manual progression* semantics: like LibNBC's schedule, the collective
advances in **rounds** of up to ``max_inflight`` pairwise sends, and a
new round can start only at a *library entry* that happens after the
previous round completed.  Between library entries nothing is posted —
this is why too low an ``MPI_Test`` frequency stalls the exchange
(Section 3.3), and why a variant that never tests during Unpack/FFTx
(TH) leaves rounds exposed at Wait.

Library entries come in three forms:

* ``post`` — the initial ``MPI_Ialltoall`` call starts round one;
* ``progress_segment(t0, D, F)`` — the owner computes for ``D`` seconds
  while calling ``MPI_Test`` ``F`` times at evenly spaced epochs; each
  epoch that finds the previous round finished posts the next round
  (the knob the paper's ``Fy/Fp/Fu/Fx`` parameters turn);
* ``enter_wait`` — ``MPI_Wait`` parks the owner in the library, so the
  remaining rounds run back-to-back at full NIC rate.

Completion requires (a) all own rounds finished and (b) all incoming
messages delivered, which is what :meth:`completion_probe` computes for
the engine scheduler.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .fabric import CollOp, Fabric

#: rotation orders are identical for every exchange of the same shape;
#: cache them per (rank, group size)
_ORDER_CACHE: dict[tuple[int, int], list[int]] = {}


def _rotation_order(rank: int, p: int) -> list[int]:
    order = _ORDER_CACHE.get((rank, p))
    if order is None:
        order = [(rank + k) % p for k in range(1, p)]
        _ORDER_CACHE[(rank, p)] = order
    return order


class AlltoallRequest:
    """Non-blocking all-to-all(v) with manual progression.

    Parameters
    ----------
    fabric, op:
        Shared network state and the collective instance record.
    rank:
        Owner's index within the participating group.
    group:
        World ranks of the participants (``group[rank]`` is the owner).
    sendcounts:
        Bytes destined to each group member, as a list (vector form
        supports alltoallv; the owner's own slot is copied locally for
        free).  The communicator validates it and the receive counts.
    uniform_size:
        The common entry when all sendcounts are equal, else ``None``.
    """

    #: set True once wait returned; reuse raises.
    consumed: bool = False

    def __init__(
        self,
        fabric: Fabric,
        op: CollOp,
        rank: int,
        group: list[int],
        sendcounts: list[int],
        payload: list[Any] | None = None,
        uniform_size: int | None = None,
    ) -> None:
        p = len(group)
        self.fabric = fabric
        self.op = op
        self.rank = rank
        self.group = group
        # Injection order: rank+1, rank+2, ... (pairwise-style rotation).
        self._pending = _rotation_order(rank, p)
        self._sendcounts_list = sendcounts
        #: every sendcount equals this (uniform alltoall), else None;
        #: an unset hint just means the flush path re-derives uniformity
        self._uniform_size = uniform_size
        self._n = len(self._pending)
        self._next = 0
        self._own_finish = 0.0
        self._round_ready = 0.0
        self._entered_wait = False
        # Hot-loop bindings: progress_segment runs on every MPI_Test
        # epoch batch, so the per-call attribute walks are hoisted here.
        self._rank_w = group[rank]
        self._row = op.arrivals[rank]
        self._counts = op.posted_count
        self._col_max = op.col_max
        # Loop-invariant bundle for the round-posting paths: one tuple
        # unpack replaces ~14 attribute walks per library entry (these
        # run several times per tile and dominate simulator overhead).
        net = fabric.net
        rates = fabric._rates
        self._hot = (
            self._rank_w,
            rates[self._rank_w] if rates is not None else fabric.rank_rate,
            net.latency,
            net.eager_threshold,
            net.max_inflight,
            self._sendcounts_list,
            self._pending,
            self._row,
            self._counts,
            self._col_max,
            op.p,
            op.waiters,
            fabric.notify_rank,
            fabric.lat_draw,
        )
        if payload is not None:
            op.payload[rank] = payload
        #: diagnostics: number of library entries that progressed this op
        self.progress_entries = 0
        #: completion time once determined (arrivals are final when
        #: posted, so the value never changes afterwards)
        self._cached_completion: float | None = None

    # -- progression --------------------------------------------------------

    def _post_round(self, t_post: float, epoch_gap: float) -> None:
        """Post the next round: up to ``max_inflight`` pending sends,
        serialized on the owner's NIC in one pass that also records each
        arrival (per-message arithmetic as in :meth:`progress_segment`).
        """
        (rank_w, rate, lat, thr, infl, sc, pending, row, counts, cmax,
         p, waiters, notify, draw) = self._hot
        n = self._n
        nxt = self._next
        stop = nxt + infl
        if stop > n:
            stop = n
        if stop <= nxt:
            return
        fabric = self.fabric
        rdv = 2.0 * lat + 0.5 * epoch_gap
        nic = float(fabric.nic_free[rank_w])
        if nic < t_post:
            nic = t_post
        total = 0
        round_max = float("-inf")  # jitter can reorder within a round
        for j in range(nxt, stop):
            d = pending[j]
            sz = sc[d]
            nic += sz / rate
            a = nic + lat + (rdv if sz > thr else 0.0)
            if draw is not None:
                a += draw(rank_w)
            row[d] = a
            counts[d] += 1
            if a > cmax[d]:
                cmax[d] = a
            if counts[d] >= p and waiters:
                w = waiters.pop(d, None)
                if w is not None and notify is not None:
                    notify(w)
            total += sz
            if a > round_max:
                round_max = a
        fabric.nic_free[rank_w] = nic
        fabric.bytes_injected[rank_w] += total
        if round_max > self._own_finish:
            self._own_finish = round_max
        #: a new round may be posted at the first library entry at or
        #: after this time (the LibNBC round barrier)
        self._round_ready = self._own_finish
        self._next = stop

    def post(self, t: float) -> None:
        """Initial library entry (the Ialltoall call itself)."""
        r = self.rank
        self._row[r] = t  # self-delivery is free
        self._counts[r] += 1
        if t > self._col_max[r]:
            self._col_max[r] = t
        self._round_ready = t
        self._post_round(t, 0.0)
        self.progress_entries += 1

    def progress_segment(self, t0: float, duration: float, ntests: int) -> None:
        """Model ``ntests`` MPI_Test calls spread over ``[t0, t0+duration]``.

        Test ``j`` (1-based) happens at ``t0 + j*gap`` with
        ``gap = duration/(ntests+1)``; an epoch that finds the previous
        round complete posts the next one.  Processing is O(rounds), so
        huge ``F`` values cost the *simulated* program time (test-call
        overhead, charged by the caller) but not simulator time.
        """
        if ntests <= 0:
            return
        self.progress_entries += 1
        n = self._n
        if self._next >= n or duration <= 0:
            return
        gap = duration / (ntests + 1)
        ready = self._round_ready
        # Closed-form batch check before any heavy binding: the first
        # epoch that could post a round is ceil((ready - t0)/gap); when
        # it lies past this segment's last test, the whole batch of
        # failed tests is a no-op and the call returns here.  The
        # expression mirrors the loop below bit for bit — an algebraic
        # rearrangement could diverge by a ULP and shift a posted time.
        k_first = (ready - t0) / gap
        k_first = int(k_first) + (k_first > int(k_first))
        if k_first < 1:
            k_first = 1
        if k_first > ntests:
            return
        # Tight scalar loop: one iteration per posted round, with the
        # NIC/arrival math inlined (this path runs O(p/max_inflight)
        # times per tile per rank and dominates simulator cost at scale).
        (rank_w, rate, lat, thr, infl, sc, pending, row, counts, cmax,
         p, waiters, notify, jdraw) = self._hot
        fabric = self.fabric
        rdv = 2.0 * lat + 0.5 * gap
        nic = float(fabric.nic_free[rank_w])
        total_bytes = 0
        k = 0  # index of the last used epoch (1-based over 1..ntests)
        own = self._own_finish
        while self._next < n:
            # First epoch at or after the previous round's completion.
            k_needed = (ready - t0) / gap
            k_needed = int(k_needed) + (k_needed > int(k_needed))
            if k_needed <= k:
                k_needed = k + 1
            if k_needed > ntests:
                break  # no more library entries in this segment
            k = k_needed
            t_post = t0 + k * gap
            if t_post > nic:
                nic = t_post
            stop = min(self._next + infl, n)
            round_max = 0.0
            for j in range(self._next, stop):
                d = pending[j]
                sz = sc[d]
                nic += sz / rate
                a = nic + lat + (rdv if sz > thr else 0.0)
                if jdraw is not None:
                    a += jdraw(rank_w)
                row[d] = a
                counts[d] += 1
                if a > cmax[d]:
                    cmax[d] = a
                if counts[d] >= p and waiters:
                    w = waiters.pop(d, None)
                    if w is not None and notify is not None:
                        notify(w)
                total_bytes += sz
                if a > round_max:
                    round_max = a
            self._next = stop
            if round_max > own:
                own = round_max
            ready = own
        fabric.nic_free[rank_w] = nic
        fabric.bytes_injected[rank_w] += total_bytes
        self._own_finish = own
        self._round_ready = ready

    def enter_wait(self, t: float) -> None:
        """MPI_Wait entry: run the remaining rounds back-to-back."""
        if self._next < self._n:
            self._flush_rounds(max(t, self._round_ready))
        self._entered_wait = True
        self._wait_entry = t
        self.progress_entries += 1

    def _flush_rounds(self, t0: float) -> None:
        """Post every remaining round, library-resident (gap = 0).

        Uniform message sizes (plain alltoall) take a closed-form path:
        within a round messages serialize on the NIC; each round barrier
        costs the previous round's delivery (latency, plus the
        rendezvous handshake for large messages).  Mixed sizes
        (alltoallv) fall back to the per-round loop.
        """
        (rank_w, rate, lat, thr, infl, sc, pending, row, counts, cmax,
         p, waiters, notify, jdraw) = self._hot
        dests = pending[self._next :]
        m = self._uniform_size
        if m is None:
            # No uniformity hint: derive it for the remaining slice (a
            # suffix of an alltoallv vector can still be uniform, and
            # path selection must not depend on how the request was
            # constructed).
            sizes = [sc[d] for d in dests]
            if len(set(sizes)) == 1:
                m = sizes[0]
        if m is None or jdraw is not None:
            # Mixed sizes (alltoallv), or latency faults — the per-round
            # loop keeps round barriers consistent with jittered
            # arrivals the way the progress_segment path sees them.
            while self._next < self._n:
                self._post_round(max(t0, self._round_ready), 0.0)
            return
        fabric = self.fabric
        n = len(dests)
        dur = m / rate
        rdv = 2.0 * lat if m > thr else 0.0
        barrier = lat + rdv  # delivery gap between rounds
        start0 = max(t0, float(fabric.nic_free[rank_w]))
        if n <= 48:
            # Scalar path: rounds are short, and for small n the python
            # loop beats five ndarray constructions.  Same IEEE ops in
            # the same order as the vector path below — the expressions
            # are kept textually parallel on purpose.
            last_finish = start0
            own = self._own_finish
            for jj, d in enumerate(dests):
                last_finish = start0 + (jj + 1) * dur + (jj // infl) * barrier
                a = last_finish + lat + rdv
                row[d] = a
                counts[d] += 1
                if a > cmax[d]:
                    cmax[d] = a
                if a > own:
                    own = a
                if counts[d] >= p and waiters:
                    w = waiters.pop(d, None)
                    if w is not None and notify is not None:
                        notify(w)
            fabric.nic_free[rank_w] = last_finish
            fabric.bytes_injected[rank_w] += m * n
            self._own_finish = own
            self._round_ready = own
            self._next += n
            return
        j = np.arange(n)
        ridx = j // infl
        finish = start0 + (j + 1) * dur + ridx * barrier
        arrivals = finish + lat + rdv
        for d, a in zip(dests, arrivals.tolist()):
            row[d] = a
            counts[d] += 1  # destinations are unique within a request
            if a > cmax[d]:
                cmax[d] = a
            if counts[d] >= p and waiters:
                w = waiters.pop(d, None)
                if w is not None and notify is not None:
                    notify(w)
        fabric.nic_free[rank_w] = float(finish[-1])
        fabric.bytes_injected[rank_w] += m * n
        self._own_finish = max(self._own_finish, float(arrivals.max()))
        self._round_ready = self._own_finish
        self._next += n

    # -- completion -----------------------------------------------------------

    def completion_probe(self) -> float | None:
        """Earliest virtual time at which the exchange is complete, or
        ``None`` while posted events do not determine it yet."""
        if self._cached_completion is None:
            if self._next < self._n:
                return None
            if self._counts[self.rank] < self.op.p:  # row incomplete
                return None
            incoming = self._col_max[self.rank]
            self._cached_completion = (
                self._own_finish if self._own_finish > incoming else incoming
            )
        t = self._cached_completion
        if self._entered_wait:
            t = max(t, self._wait_entry)
        return t

    def on_complete(self, t: float) -> list[Any] | None:
        """Assemble received chunks (real-payload mode) in group order,
        and free the shared op record once every participant finished."""
        payloads = self.op.payload
        out: list[Any] | None = None
        if payloads:
            out = []
            for src in range(len(self.group)):
                chunks = payloads.get(src)
                out.append(None if chunks is None else chunks[self.rank])
        self.op.done_count += 1
        if self.op.done_count == len(self.group):
            self.fabric.release_coll(self.op.key)
        return out

