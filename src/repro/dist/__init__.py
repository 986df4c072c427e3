"""Distributed work-queue layer: one grid, many hosts, shared stores.

The paper's evaluation sweeps (platform x shape x p x variant) grids
whose cells are independent, deterministic experiments; :mod:`repro.exec`
shards them over *local* processes.  This package is the scale-out move
P3DFFT-style frameworks make when one node stops being enough: a
**coordinator** serves the grid's cell descriptors over a tiny
JSON-over-HTTP protocol (stdlib :mod:`http.server` — zero dependencies),
and any number of **workers** (``repro worker --coordinator URL``) lease
batches of cells, evaluate them through the same
:func:`~repro.exec.parallel_map` pool local runs use, and ship
:class:`~repro.bench.runner.CellResult` payloads plus eval-store deltas
back for input-order merge into the shared result/eval stores.

Determinism argument (DESIGN.md §5.9): a cell is a pure function of its
5-tuple key and every worker starts each cell from the *same* eval-store
snapshot the local pool hands its workers, so *where* a cell runs cannot
change its value; the coordinator merges results by input order and the
stores serialize sorted, making ``grid --serve`` + N workers
byte-identical to ``--jobs N``.

Fault story: leases expire when a worker stops renewing them (crash,
kill, partition) and the cells requeue for the next lease; completions
are idempotent and keyed by the cell key, so a slow twin finishing after
a requeue is a harmless no-op.  Completed cells are flushed to the
shared :class:`~repro.exec.ResultStore` as they arrive, so a restarted
coordinator resumes via store read-through and serves only the missing
cells.

Telemetry plane (DESIGN.md §5.12): the coordinator doubles as the
fleet's aggregation point — workers attach metric deltas and trace
spans to ``/complete``, the coordinator merges them into the registry
it serves at ``GET /metrics`` (Prometheus text) and into one
fleet-wide Chrome trace (a process group per worker host) written
under :attr:`DistConfig.trace_dir`; ``repro top`` polls ``/status`` +
``/metrics`` for the live view.
"""

from .config import DistConfig
from .coordinator import Coordinator, GridJob, dist_map
from .fleet import WorkerFleet, launch_workers
from .protocol import close_connections, fetch_text
from .queue import WorkQueue
from .worker import WorkerStats, run_worker

__all__ = [
    "Coordinator",
    "DistConfig",
    "GridJob",
    "WorkQueue",
    "WorkerFleet",
    "WorkerStats",
    "close_connections",
    "dist_map",
    "fetch_text",
    "launch_workers",
    "run_worker",
]
