"""Worker loop: lease cells, evaluate through the local pool, ship back.

``repro worker --coordinator URL --jobs N`` runs :func:`run_worker`:
fetch the grid descriptor once, then lease -> evaluate -> report until
the coordinator says the grid is finished.  Evaluation goes through the
*same* :func:`~repro.exec.parallel_map` the local dispatch path uses —
with the same module-level cell functions, the same per-cell eval-store
snapshot, and the ambient fault spec re-installed from the
coordinator's canonical key — which is the whole determinism story:
a worker computes exactly the bytes the local pool would have.

A background thread renews the active lease every TTL/3 so long cells
never expire under a *live* worker; expiry (and requeue) only fires for
workers that actually died.  Completion reports carry the worker's
accumulated FFT wisdom, so planner work done on any host is reused
everywhere (first-wins merge, order-independent).

Telemetry (DESIGN.md §5.12): each worker publishes into a *private*
registry (installed with :func:`~repro.obs.registry.scoped_registry` on
the serving thread) and a private :class:`~repro.obs.tracer.Tracer`
passed explicitly to :func:`~repro.exec.parallel_map`, which traces the
cells' items into it (installed on the serving thread for serial items,
merged from pooled ones) — both stacks are per thread, so in-process
worker threads (the test harness) and a sharing coordinator never
cross-contaminate.  Every
``/complete`` ships the registry delta and the trace spans recorded
since the previous ship (watermarks, so nothing is double-counted);
the delta includes the counts of cells the local pool's processes ran,
which ``parallel_map`` merges into the private registry item by item.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from ..bench.runner import cell_to_dict, tune_cell
from ..errors import DistProtocolError, ParallelMapError
from ..exec.pool import ExecPolicy, ProgressFn, _cell_with_evals, parallel_map
from ..faults import install_faults, parse_faults, uninstall_faults
from ..fft.wisdom import GLOBAL_WISDOM
from ..obs.export import span_records
from ..obs.registry import MetricsRegistry, scoped_registry
from ..obs.tracer import Tracer
from .protocol import PROTOCOL_VERSION, call, close_connections


@dataclass
class WorkerStats:
    """What one :func:`run_worker` invocation did."""

    worker: str = ""
    leases: int = 0
    cells_done: int = 0
    cells_failed: int = 0
    polls: int = 0


@dataclass
class _Heartbeat:
    """Shared state the renew thread reports upstream."""

    done: int = 0
    total: int = 0
    label: str = ""
    lock: threading.Lock = field(default_factory=threading.Lock)

    def snapshot(self) -> dict:
        with self.lock:
            return {"done": self.done, "total": self.total, "label": self.label}

    def update(self, done: int, total: int, label: str) -> None:
        with self.lock:
            self.done, self.total, self.label = done, total, label


@dataclass
class _Telemetry:
    """The worker's private metric registry + tracer, with ship
    watermarks so back-to-back ``/complete`` payloads never overlap."""

    registry: MetricsRegistry
    tracer: Tracer
    metrics_mark: dict = field(default_factory=dict)
    spans_mark: int = 0

    def payload(self, host: str) -> dict:
        """The telemetry fields for one ``/complete`` body; advances
        both watermarks past everything it returns."""
        delta = self.registry.delta(self.metrics_mark)
        self.metrics_mark = self.registry.snapshot()
        spans = span_records(self.tracer, start=self.spans_mark)
        self.spans_mark = len(self.tracer.spans)
        out: dict = {"host": host}
        if delta:
            out["metrics"] = delta
        if spans:
            out["spans"] = spans
        return out


def worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def run_worker(
    coordinator: str,
    jobs: int | None = None,
    max_cells: int | None = None,
    poll_s: float = 0.5,
    progress: ProgressFn | None = None,
    policy: ExecPolicy | None = None,
    rpc_timeout: float = 10.0,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    token: str | None = None,
) -> WorkerStats:
    """Serve one grid as a worker until the coordinator reports finished.

    ``jobs`` shards each lease over a local process pool (inheriting
    ``policy``'s retries/timeouts); ``max_cells`` caps the cells per
    lease (default: the coordinator's batch size, but at least ``jobs``
    so the local pool has work for every slot).  ``token`` is the
    coordinator's bearer token (None when auth is disabled).
    """
    stats = WorkerStats(worker=worker_id())
    cfg = call(coordinator, "/config", timeout=rpc_timeout, sleep=sleep,
               token=token)
    if cfg.get("version") != PROTOCOL_VERSION:
        raise DistProtocolError(
            f"coordinator speaks protocol {cfg.get('version')!r}, "
            f"this worker speaks {PROTOCOL_VERSION}"
        )
    platform = cfg["platform"]
    snapshot = cfg.get("evals")
    ttl = float(cfg.get("lease_ttl", 15.0))
    if max_cells is None:
        max_cells = max(int(cfg.get("batch", 1)), jobs or 1)

    faults_text = cfg.get("faults", "")
    installed = None
    if faults_text:
        # Mirror the coordinator's ambient fault spec so the cells this
        # worker computes carry the same 5-tuple key (and the same
        # injected machine) the coordinator expects.
        installed = parse_faults(faults_text)
        install_faults(installed)
    try:
        # The private registry is installed on *this thread's* stack, so
        # pool callbacks publishing via current_registry() land here —
        # and nowhere else, even when several workers share a process.
        with scoped_registry() as reg:
            telem = _Telemetry(registry=reg, tracer=Tracer(rank_spans=False))
            telem.metrics_mark = reg.snapshot()
            _serve(
                stats, coordinator, platform, snapshot, ttl, jobs,
                max_cells, poll_s, progress, policy, rpc_timeout, clock,
                sleep, telem, token,
            )
    finally:
        if installed is not None:
            uninstall_faults(installed)
        close_connections()  # done with this coordinator: hang up
    return stats


def _serve(
    stats: WorkerStats,
    coordinator: str,
    platform: str,
    snapshot: str | None,
    ttl: float,
    jobs: int | None,
    max_cells: int,
    poll_s: float,
    progress: ProgressFn | None,
    policy: ExecPolicy | None,
    rpc_timeout: float,
    clock: Callable[[], float],
    sleep: Callable[[float], None],
    telem: _Telemetry,
    token: str | None = None,
) -> None:
    while True:
        try:
            grant = call(
                coordinator, "/lease",
                {"worker": stats.worker, "max_cells": max_cells},
                timeout=rpc_timeout, sleep=sleep, token=token,
            )
        except DistProtocolError:
            # The coordinator vanished mid-poll (grid finished and shut
            # down, or it crashed).  Either way the grid is over for us:
            # exit cleanly — any lease we held expires and requeues.
            return
        cells = grant.get("cells", [])
        if not cells:
            if grant.get("finished"):
                return
            stats.polls += 1
            sleep(poll_s)
            continue
        stats.leases += 1
        _evaluate_lease(
            stats, coordinator, platform, snapshot, ttl,
            str(grant.get("lease", "")), cells, jobs, progress, policy,
            rpc_timeout, sleep, telem, token,
        )


def _evaluate_lease(
    stats: WorkerStats,
    coordinator: str,
    platform: str,
    snapshot: str | None,
    ttl: float,
    lease: str,
    cells: list[dict],
    jobs: int | None,
    progress: ProgressFn | None,
    policy: ExecPolicy | None,
    rpc_timeout: float,
    sleep: Callable[[float], None],
    telem: _Telemetry,
    token: str | None = None,
) -> None:
    """Evaluate one lease's cells and report every outcome upstream."""
    labels = [f"{platform} p{c['p']} N{c['n']}" for c in cells]
    beat = _Heartbeat(total=len(cells))
    stop = threading.Event()

    def renew_loop() -> None:
        # TTL/3 keeps two missed beats short of expiry; a dead worker
        # stops renewing and its lease requeues — exactly the failure
        # mode the queue is built around.
        while not stop.wait(ttl / 3.0):
            try:
                call(
                    coordinator, "/renew",
                    {"worker": stats.worker, "lease": lease,
                     **beat.snapshot()},
                    timeout=rpc_timeout, retries=0, sleep=sleep,
                    token=token,
                )
            except DistProtocolError:
                pass  # transient; the next beat (or expiry) sorts it out

    renewer = threading.Thread(
        target=renew_loop, name="repro-dist-renew", daemon=True
    )
    renewer.start()

    def local_progress(done: int, total: int, label: str) -> None:
        beat.update(done, total, label)
        if progress is not None:
            progress(done, total, label)

    extra: dict = {}
    if policy is not None:
        extra["policy"] = policy
    # Exactly the local pool's per-cell call shape: each cell starts
    # from the same pre-dispatch eval-store snapshot, so tuning_times
    # (store hits are free) cannot depend on which worker ran it.
    if snapshot is None:
        fn: Callable = tune_cell
        argtuples = [(platform, c["p"], c["n"], c["budget"]) for c in cells]
    else:
        fn = _cell_with_evals
        argtuples = [
            (platform, c["p"], c["n"], c["budget"], snapshot) for c in cells
        ]
    failures: dict[int, Exception] = {}
    try:
        try:
            values = parallel_map(
                fn, argtuples, jobs, labels=labels, progress=local_progress,
                tracer=telem.tracer, **extra,
            )
        except ParallelMapError as err:
            values = err.results
            failures = err.failures
    finally:
        stop.set()
        renewer.join(timeout=ttl)

    done_payload = []
    for local_i, value in enumerate(values):
        if value is None:
            continue
        cell, delta = (value, "") if snapshot is None else value
        done_payload.append({
            "index": cells[local_i]["index"],
            "cell": cell_to_dict(cell),
            "evals": delta,
        })
    if done_payload:
        call(
            coordinator, "/complete",
            {"worker": stats.worker, "lease": lease, "cells": done_payload,
             "wisdom": GLOBAL_WISDOM.export_json(),
             **telem.payload(stats.worker)},
            timeout=rpc_timeout, sleep=sleep, token=token,
        )
        stats.cells_done += len(done_payload)
    if failures:
        fail_payload = [
            {
                "index": cells[local_i]["index"],
                "label": getattr(err, "label", labels[local_i]),
                "cause": getattr(err, "cause", str(err)),
                "attempts": getattr(err, "attempts", 1),
                "timed_out": "Timeout" in type(err).__name__,
            }
            for local_i, err in sorted(failures.items())
        ]
        call(
            coordinator, "/fail",
            {"worker": stats.worker, "lease": lease,
             "failures": fail_payload},
            timeout=rpc_timeout, sleep=sleep, token=token,
        )
        stats.cells_failed += len(fail_payload)
