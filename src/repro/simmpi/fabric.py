"""Runtime network state for the simulated cluster.

The :class:`Fabric` owns everything ranks share: per-rank NIC schedules
and the in-flight collective operation records.  Because the engine runs
exactly one rank at a time (single-token scheduling), fabric state needs
no locking; determinism follows from the scheduler's min-virtual-time
rank selection.

Message timing follows a LogGP-flavored model, applied per message by
the all-to-all posting loops in :mod:`repro.simmpi.request`:

* a send occupies the sender's NIC for ``nbytes / rank_rate`` seconds
  (injection serialization, with fabric contention folded into the rate);
* it arrives ``latency`` seconds after injection completes;
* messages above the eager threshold additionally pay a rendezvous
  penalty of ``2*latency`` plus half the sender's current MPI_Test epoch
  gap — the modeled cost of waiting for the peer to enter the library
  (manual progression, Section 3.3 of the paper; the symmetric-SPMD
  approximation is documented in DESIGN.md §5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import MPIUsageError
from ..machine.platforms import Platform


@dataclass
class CollOp:
    """Shared record of one collective instance across all participants.

    ``arrivals[src][dst]`` is the virtual time at which src's message to
    dst is fully delivered (NaN until posted).  Rows are plain Python
    lists: the hot paths write one scalar at a time, and creating p
    small lists is far cheaper than a (p, p) ndarray per collective.
    ``payload[src]`` holds the per-destination data chunks in
    real-payload mode.

    ``members`` is the number of participants that actually run, one
    row of ``arrivals`` each: ``p``, or 1 in a rank-symmetric run, where
    the one stepped rank stands for all p (see :class:`Fabric`).
    """

    key: tuple[Any, ...]
    p: int
    members: int
    arrivals: list[list[float]]
    #: messages posted toward each destination (a plain list: senders bump
    #: entries one at a time, where list indexing beats ndarray scalars)
    posted_count: list[int]
    #: running max arrival per destination column, maintained by every
    #: arrivals write, so completion needs no column scan
    col_max: list[float]
    payload: dict[int, Any] = field(default_factory=dict)
    #: participants whose wait has returned; the last one frees the record
    done_count: int = 0
    #: local index -> world rank parked in Wait on that row; the poster
    #: that completes the row notifies the engine (event-driven wakeup)
    waiters: dict[int, int] = field(default_factory=dict)

    @classmethod
    def create(cls, key: tuple[Any, ...], p: int, members: int) -> "CollOp":
        """Fresh record with an empty arrival table."""
        return cls(
            key=key,
            p=p,
            members=members,
            arrivals=[[float("nan")] * p for _ in range(members)],
            posted_count=[0] * p,
            col_max=[float("-inf")] * p,
        )


class Fabric:
    """Shared network state: NIC schedules and collective records.

    ``symmetric`` marks a rank-symmetric run: only rank 0 runs, and each
    collective record has that one member (``CollOp.members``)."""

    def __init__(
        self, platform: Platform, nprocs: int, faults=None,
        symmetric: bool = False,
    ) -> None:
        if nprocs < 1:
            raise MPIUsageError(f"need at least 1 process, got {nprocs}")
        self.net = platform.net
        #: only rank 0 runs; it stands for all p (see CollOp.members)
        self.symmetric = symmetric
        #: virtual time at which each rank's NIC finishes its queued sends
        self.nic_free = np.zeros(nprocs)
        #: effective sustained per-rank injection rate during dense exchange
        self.rank_rate = self.net.rank_rate(nprocs)
        #: injected faults (a :class:`repro.faults.FaultModel`, or None):
        #: link degradation becomes per-rank rates; latency jitter/spikes
        #: become the ``lat_draw`` hook the hot send paths apply per
        #: message (None = fault-free fast path).
        self._rates: list[float] | None = None
        self.lat_draw = None
        if faults is not None:
            if (faults.rate_scale != 1.0).any():
                self._rates = [
                    float(self.rank_rate * s) for s in faults.rate_scale
                ]
            if faults.has_latency_faults:
                self.lat_draw = faults.draw_extra_latency
        self._colls: dict[tuple[Any, ...], CollOp] = {}
        #: engine hook: called with a world rank whose blocked operation
        #: just became determinable (set by Engine at construction)
        self.notify_rank = None
        #: bytes ever injected, per rank (observability / tests)
        self.bytes_injected = np.zeros(nprocs)

    # -- collectives -------------------------------------------------------

    def get_coll(self, key: tuple[Any, ...], p: int) -> CollOp:
        """Fetch or create the shared record for an all-to-all instance.

        ``key`` identifies the instance: (communicator id, per-rank
        collective sequence number) — ranks match their i-th collective
        call on a communicator with every peer's i-th call, as MPI
        requires.
        """
        op = self._colls.get(key)
        if op is None:
            op = CollOp.create(key, p, 1 if self.symmetric else p)
            self._colls[key] = op
        elif op.p != p:
            raise MPIUsageError(
                f"collective {key} joined with group size {p}, "
                f"created with {op.p}"
            )
        return op

    def release_coll(self, key: tuple[Any, ...]) -> None:
        """Drop a completed collective record (frees payload memory).

        Safe to call more than once; the last finisher wins.
        """
        self._colls.pop(key, None)
