"""Grid coordinator: serve cells over HTTP, merge results in input order.

The coordinator is the distributed twin of the pool driver in
:mod:`repro.exec.pool`: it owns the grid's ``todo`` list, hands cells to
workers via leases (:mod:`repro.dist.queue`), and folds accepted
completions into a ``results`` list indexed exactly like
:func:`~repro.exec.parallel_map`'s — so :func:`dist_map` can return (or
raise) in the same shape and ``evaluate_cells`` harvests both dispatch
modes with the same code.

Durability: every accepted completion is flushed to the shared
:class:`~repro.exec.ResultStore` *immediately* (atomic per-cell files),
so a coordinator killed mid-grid loses nothing — a restart re-reads the
store, serves only the missing cells, and re-simulates zero of the
completed ones.

Trust boundary: completions are validated, not believed.  A payload's
reconstructed :meth:`CellResult.key` must equal the key the coordinator
itself computed for that index, or the completion is rejected — a
worker with a different ambient fault spec (or a stale snapshot of the
grid) cannot poison the store.

Telemetry (DESIGN.md §5.12): the coordinator is also the fleet's
metrics aggregation point.  It publishes its own ``dist_*`` counters
into the registry captured at construction, folds the metric deltas and
trace spans workers attach to ``/complete`` into that registry and a
per-host span map, serves the merged view at ``GET /metrics``
(Prometheus text exposition), and — when ``DistConfig.trace_dir`` is
set — writes ``fleet_trace.json`` / ``fleet_metrics.prom`` when the
grid ends.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from ..errors import (
    DistWorkersLost,
    ItemFailedError,
    ItemTimeoutError,
    ParallelMapError,
)
from ..exec.store import CellResult, ResultStore, cell_from_dict
from ..fft.wisdom import GLOBAL_WISDOM
from ..obs.export import export_fleet_chrome
from ..obs.registry import current_registry
from ..util.httpd import ServicePlane
from .config import DistConfig
from .fleet import launch_workers
from .protocol import PROTOCOL_VERSION
from .queue import WorkQueue

#: ``note(text)`` — one-line fleet status for the live progress ticker
NoteFn = Callable[[str], None]


@dataclass
class GridJob:
    """Everything a worker needs to evaluate this grid's cells.

    ``todo`` holds full 5-tuple cell keys
    ``(platform, p, n, budget, faults)`` in input order;
    ``evals_snapshot`` is the eval-store JSONL taken once before
    dispatch (``None`` when no eval store is in play) — every worker
    starts every cell from this same snapshot, mirroring the local
    pool's semantics so results are byte-identical across dispatch
    modes.
    """

    platform: str
    todo: list[tuple[str, int, int, int, str]]
    labels: list[str]
    evals_snapshot: str | None = None
    faults: str = ""
    lease_ttl: float = 15.0
    batch: int = 1

    def descriptor(self) -> dict:
        """The /config response body."""
        return {
            "version": PROTOCOL_VERSION,
            "platform": self.platform,
            "faults": self.faults,
            "evals": self.evals_snapshot,
            "lease_ttl": self.lease_ttl,
            "batch": self.batch,
            "total": len(self.todo),
            "cells": [
                {"index": i, "p": p, "n": n, "budget": b}
                for i, (_plat, p, n, b, _f) in enumerate(self.todo)
            ],
        }


@dataclass
class _WorkerNote:
    """Last heartbeat from one worker (for the aggregated ticker)."""

    done: int = 0
    total: int = 0
    label: str = ""
    last_seen: float = 0.0


class Coordinator(ServicePlane):
    """One grid's coordinator: HTTP server + lease queue + result merge."""

    AUTH_REJECTS = "dist_auth_rejects_total"

    def __init__(
        self,
        job: GridJob,
        config: DistConfig = DistConfig(),
        store: ResultStore | None = None,
        progress: Callable[[int, int, str], None] | None = None,
        note: NoteFn | None = None,
    ) -> None:
        self.job = job
        self.config = config
        self.store = store
        self.progress = progress
        self.note = note
        self.queue = WorkQueue(
            len(job.todo), lease_ttl=job.lease_ttl, clock=config.clock
        )
        self.results: list[Any] = [None] * len(job.todo)
        self.failures: dict[int, ItemFailedError] = {}
        self.workers_seen: set[str] = set()
        self._notes: dict[str, _WorkerNote] = {}
        self._finished_events = 0
        self._lock = threading.Lock()
        # captured at construction: HTTP handler threads have their own
        # (empty) thread-local registry stacks, so a lookup there would
        # miss the registry the grid run installed on the driver thread
        self.registry = current_registry()
        self._t0 = config.clock()
        #: worker host id -> shipped span records (the fleet trace input)
        self._fleet_spans: dict[str, list[dict]] = {}
        for name, help_ in (
            ("dist_leases_total", "Leases granted to workers."),
            ("dist_heartbeats_total", "Lease renewals received."),
            ("dist_completions_total", "Cell completions accepted."),
            ("dist_requeues_total", "Cells requeued from expired leases."),
            ("dist_telemetry_rejects_total",
             "Worker telemetry payloads dropped as malformed."),
            ("dist_auth_rejects_total",
             "Requests rejected for a missing or wrong bearer token."),
        ):
            self.registry.inc(name, 0, help=help_)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> str:
        """Bind and start serving in a daemon thread; returns the URL."""
        return self._start_http("repro-dist-coordinator", {
            ("GET", "/config"): self.job.descriptor,
            ("GET", "/status"): self.handle_status,
            ("POST", "/lease"): self.handle_lease,
            ("POST", "/renew"): self.handle_renew,
            ("POST", "/complete"): self.handle_complete,
            ("POST", "/fail"): self.handle_fail,
        })

    def stop(self) -> None:
        self._stop_http()

    # -- endpoint logic (called from handler threads) ----------------------

    def handle_lease(self, body: dict) -> dict:
        worker = str(body.get("worker", "?"))
        self.workers_seen.add(worker)
        lease, indices = self.queue.lease(
            worker, int(body.get("max_cells", self.job.batch))
        )
        if indices:
            self.registry.inc("dist_leases_total")
        return {
            "lease": lease,
            "cells": [
                {
                    "index": i,
                    "p": self.job.todo[i][1],
                    "n": self.job.todo[i][2],
                    "budget": self.job.todo[i][3],
                }
                for i in indices
            ],
            "finished": self.queue.finished,
        }

    def handle_renew(self, body: dict) -> dict:
        worker = str(body.get("worker", "?"))
        ok = self.queue.renew(str(body.get("lease", "")))
        with self._lock:
            self._notes[worker] = _WorkerNote(
                done=int(body.get("done", 0)),
                total=int(body.get("total", 0)),
                label=str(body.get("label", "")),
                last_seen=self.config.clock(),
            )
        self.registry.inc("dist_heartbeats_total")
        return {"ok": ok, "finished": self.queue.finished}

    def handle_complete(self, body: dict) -> dict:
        worker = str(body.get("worker", "?"))
        self.workers_seen.add(worker)
        accepted = 0
        for item in body.get("cells", []):
            index = int(item["index"])
            if not 0 <= index < len(self.job.todo):
                raise ValueError(f"cell index {index} out of range")
            cell = cell_from_dict(item["cell"])
            if cell.key() != self.job.todo[index]:
                raise ValueError(
                    f"cell key mismatch at index {index}: worker sent "
                    f"{cell.key()!r}, expected {self.job.todo[index]!r}"
                )
            if not self.queue.complete(index):
                continue  # idempotent: a requeued twin already landed
            self._accept(index, cell, item)
            accepted += 1
        wisdom = body.get("wisdom", "")
        if wisdom:
            with self._lock:
                # first-wins per key and every entry is a pure function
                # of its key (same argument as the pool's wisdom merge),
                # so arrival order cannot change the final store
                GLOBAL_WISDOM.import_json(wisdom)
        self._absorb_telemetry(body, worker)
        return {"accepted": accepted, "finished": self.queue.finished}

    def _absorb_telemetry(self, body: dict, worker: str) -> None:
        """Fold a ``/complete`` payload's optional telemetry in.

        Best-effort by design: a malformed delta is counted and dropped,
        never allowed to reject the completion it rode in on — results
        are load-bearing, telemetry is not.  Metric deltas merge
        additively (counters/histograms) or first-wins (gauges); span
        records append under the worker's host id, which keeps two
        workers on one machine in separate fleet-trace process groups.
        """
        host = str(body.get("host", "") or worker)
        delta = body.get("metrics")
        if isinstance(delta, dict) and delta:
            try:
                self.registry.merge(delta)
            except (ValueError, TypeError):
                self.registry.inc("dist_telemetry_rejects_total")
        spans = body.get("spans")
        if isinstance(spans, list) and spans:
            with self._lock:
                self._fleet_spans.setdefault(host, []).extend(
                    rec for rec in spans if isinstance(rec, dict)
                )

    def handle_fail(self, body: dict) -> dict:
        accepted = 0
        for item in body.get("failures", []):
            index = int(item["index"])
            if not 0 <= index < len(self.job.todo):
                raise ValueError(f"failure index {index} out of range")
            if not self.queue.fail(index):
                continue
            cls = ItemTimeoutError if item.get("timed_out") else ItemFailedError
            err = cls(
                str(item.get("label", self.job.labels[index])),
                str(item.get("cause", "worker reported failure")),
                attempts=int(item.get("attempts", 1)),
            )
            with self._lock:
                self.failures[index] = err
            self._bump_finished(index)
            accepted += 1
        return {"accepted": accepted, "finished": self.queue.finished}

    def handle_healthz(self) -> tuple[int, dict]:
        """Liveness/readiness for supervisors: 200 while the grid still
        has work to hand out, 503 once the queue is finished (the
        coordinator is about to shut down, stop routing to it).  Served
        without auth — probes don't carry bearer tokens."""
        ready = not self.queue.finished
        uptime = max(self.config.clock() - self._t0, 0.0)
        body = {
            "live": True,
            "ready": ready,
            "finished": self.queue.finished,
            "uptime_s": round(uptime, 3),
        }
        return (200 if ready else 503), body

    def handle_status(self) -> dict:
        counts = self.queue.counts()
        now = self.config.clock()
        with self._lock:
            counts["workers"] = {
                w: {
                    "done": n.done,
                    "total": n.total,
                    "label": n.label,
                    "lag_s": round(max(now - n.last_seen, 0.0), 3),
                }
                for w, n in self._notes.items()
            }
        counts["lease_ages_s"] = [
            round(a, 3) for a in self.queue.lease_ages()
        ]
        uptime = max(now - self._t0, 0.0)
        counts["uptime_s"] = round(uptime, 3)
        rate = counts["done"] / uptime if uptime > 0 else 0.0
        counts["completion_rate_per_s"] = round(rate, 4)
        remaining = counts["pending"] + counts["leased"]
        counts["eta_s"] = round(remaining / rate, 3) if rate > 0 else None
        counts["finished"] = self.queue.finished
        return counts

    def metrics_text(self) -> str:
        """The ``/metrics`` body: refresh the point-in-time gauges, then
        render the whole registry (coordinator counters + every merged
        worker delta) as Prometheus text exposition."""
        counts = self.queue.counts()
        now = self.config.clock()
        reg = self.registry
        for state in ("pending", "leased", "done", "failed"):
            reg.set(f"dist_queue_{state}", counts[state],
                    help="Grid cells per queue state.")
        reg.set("dist_cells_total", counts["total"],
                help="Grid cells in this run.")
        with self._lock:
            live = sum(
                1 for n in self._notes.values()
                if now - n.last_seen <= 2 * self.job.lease_ttl
            )
        reg.set("dist_workers_live", live,
                help="Workers with a recent heartbeat.")
        ages = self.queue.lease_ages()
        reg.set("dist_lease_age_max_seconds", ages[0] if ages else 0.0,
                help="Oldest outstanding lease, seconds since grant.")
        uptime = max(now - self._t0, 0.0)
        reg.set("dist_uptime_seconds", round(uptime, 6),
                help="Seconds since the coordinator started.")
        rate = counts["done"] / uptime if uptime > 0 else 0.0
        reg.set("dist_completion_rate_per_second", round(rate, 6),
                help="Accepted completions per second of uptime.")
        return reg.render_prometheus()

    def _accept(self, index: int, cell: CellResult, item: dict) -> None:
        """Record one first-wins completion: result slot, store, ticker."""
        if self.job.evals_snapshot is None:
            value: Any = cell
        else:
            value = (cell, str(item.get("evals", "")))
        with self._lock:
            self.results[index] = value
            if self.store is not None:
                self.store.put(cell)
        self.registry.inc("dist_completions_total")
        self._bump_finished(index)

    def _bump_finished(self, index: int) -> None:
        with self._lock:
            self._finished_events += 1
            done = self._finished_events
        if self.progress is not None:
            self.progress(done, len(self.job.todo), self.job.labels[index])

    # -- wait-loop helpers -------------------------------------------------

    def tick(self) -> None:
        """One coordinator heartbeat: expire stale leases, refresh note."""
        requeued = self.queue.expire()
        if requeued:
            self.registry.inc("dist_requeues_total", len(requeued))
        if self.note is not None:
            self.note(self._note_text())

    def _note_text(self) -> str:
        now = self.config.clock()
        with self._lock:
            live = [
                (w, n)
                for w, n in sorted(self._notes.items())
                if now - n.last_seen <= 2 * self.job.lease_ttl
            ]
        if not live:
            return f"{len(self.workers_seen)} worker(s) seen"
        parts = [
            f"{w}:{n.done}/{n.total}" + (f" {n.label}" if n.label else "")
            for w, n in live[:3]
        ]
        if len(live) > 3:
            parts.append(f"+{len(live) - 3} more")
        return f"{len(live)} worker(s) " + " | ".join(parts)

    def fail_pending(self, cause: str, timed_out: bool = False) -> int:
        """Convert every non-terminal cell into a recorded failure.

        Used when the grid can no longer make progress (fleet lost, grid
        deadline): the standard :class:`~repro.errors.ParallelMapError`
        /salvage path then applies, exactly as for local pool failures.
        """
        failed = 0
        cls = ItemTimeoutError if timed_out else ItemFailedError
        for index in range(len(self.job.todo)):
            if not self.queue.fail(index):
                continue
            with self._lock:
                self.failures[index] = cls(self.job.labels[index], cause)
            self._bump_finished(index)
            failed += 1
        return failed

    def outcome(self) -> list[Any]:
        """Results in input order; raises
        :class:`~repro.errors.ParallelMapError` carrying the partial
        results when any cell failed (same contract as
        :func:`~repro.exec.parallel_map`)."""
        if self.failures:
            raise ParallelMapError(self.results, dict(self.failures))
        return self.results

    def write_fleet_trace(self, out_dir: str | Path) -> dict:
        """Write the merged fleet telemetry under ``out_dir``:
        ``fleet_trace.json`` (one Chrome trace, a process group per
        worker host, loadable by ``repro trace``) and
        ``fleet_metrics.prom`` (the final ``/metrics`` exposition).
        Returns ``{"trace": path, "metrics": path, "spans": count}``.
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with self._lock:
            spans = {h: list(s) for h, s in self._fleet_spans.items()}
        trace_path = out / "fleet_trace.json"
        export_fleet_chrome(
            spans,
            trace_path,
            meta={
                "workers": sorted(self.workers_seen),
                "cells": len(self.job.todo),
                "platform": self.job.platform,
            },
        )
        metrics_path = out / "fleet_metrics.prom"
        metrics_path.write_text(self.metrics_text())
        return {
            "trace": str(trace_path),
            "metrics": str(metrics_path),
            "spans": sum(len(s) for s in spans.values()),
        }


def dist_map(
    platform: str,
    todo: Sequence[tuple[str, int, int, int, str]],
    labels: Sequence[str],
    evals_snapshot: str | None,
    config: DistConfig,
    store: ResultStore | None = None,
    progress: Callable[[int, int, str], None] | None = None,
    note: NoteFn | None = None,
    faults: str = "",
) -> list[Any]:
    """Distributed twin of :func:`~repro.exec.parallel_map` for grids.

    Serves ``todo`` from a coordinator, optionally launches a worker
    fleet per ``config.workers``, and blocks until every cell reaches a
    terminal state.  Returns values in the exact shape the local pool
    produces (:class:`CellResult`, or ``(cell, evals_delta)`` tuples
    when ``evals_snapshot`` is given) so ``evaluate_cells`` harvests
    both dispatch modes identically; the workers' counts arrive with
    their registry deltas, not in the values.  Failures raise
    :class:`~repro.errors.ParallelMapError` with partial results.

    Raises :class:`~repro.errors.DistWorkersLost` only when a spawned
    fleet dies before *any* worker manages to connect — a configuration
    error with nothing to salvage.  A fleet that connects and then dies
    converts the remaining cells to recorded failures instead, so the
    standard salvage/resume path applies.
    """
    job = GridJob(
        platform=platform,
        todo=list(todo),
        labels=list(labels),
        evals_snapshot=evals_snapshot,
        faults=faults,
        lease_ttl=config.lease_ttl,
        batch=config.batch,
    )
    coord = Coordinator(job, config, store=store, progress=progress, note=note)
    url = coord.start()
    if config.announce is not None:
        config.announce(url)
    fleet = (
        launch_workers(url, config.workers, config.worker_jobs,
                       token=config.token)
        if config.workers
        else None
    )
    deadline = (
        None if config.timeout_s is None
        else config.clock() + config.timeout_s
    )
    try:
        while not coord.queue.finished:
            config.sleep(config.poll_s)
            coord.tick()
            if fleet is not None:
                fleet.reap()
                if fleet.spawned and fleet.alive() == 0:
                    if not coord.workers_seen:
                        raise DistWorkersLost(
                            f"all {fleet.spawned} spawned worker(s) exited "
                            f"before connecting to {url}"
                            + fleet.stderr_tail()
                        )
                    coord.fail_pending(
                        f"all {fleet.spawned} spawned worker(s) exited with "
                        f"cells still pending" + fleet.stderr_tail()
                    )
                    break
            if deadline is not None and config.clock() >= deadline:
                coord.fail_pending(
                    f"grid deadline of {config.timeout_s}s exceeded",
                    timed_out=True,
                )
                break
    finally:
        if fleet is not None:
            fleet.terminate()
        coord.stop()
        if config.trace_dir:
            coord.write_fleet_trace(config.trace_dir)
    return coord.outcome()
