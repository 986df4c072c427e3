"""Execution layer: shard experiment grids across CPU cores.

The repo's wall-clock cost is the harness, not the model — every
Table-2 cell auto-tunes three variants serially, hundreds of full SPMD
simulations each.  Cells are independent experiments keyed by
``(platform, p, n, budget)``, so the grid parallelizes embarrassingly:

* :func:`evaluate_cells` — evaluate a list of cells on a process pool
  with deterministic, order-preserving result merging;
* :func:`parallel_map` — the generic primitive underneath (also used
  for random-search CDF samples and ablation sweeps);
* :class:`ResultStore` — the one cell store: in memory only (the
  process store) or backed by a directory of one JSON file per cell
  (atomic write-tmp-then-rename), concurrency-safe either way;
* :func:`default_jobs` — the shared ``--jobs``/``$REPRO_JOBS``
  resolution used by the CLI and every ``benchmarks/bench_*.py``
  driver.

Determinism argument: a cell evaluation is a pure function of its key —
the simulation engine is deterministic, the tuner seeds its own RNG,
and workers start from an empty process store — so *where* a cell runs
cannot change its value, and merging by input order (never completion
order) makes ``jobs=N`` byte-identical to ``jobs=1``.  Cell keys include the
ambient fault spec (:mod:`repro.faults`), so fault-injected grids never
alias fault-free ones.

Fault tolerance (:class:`ExecPolicy`): items are retried with
exponential backoff, per-item timeouts abandon hung workers, a dead
pool is respawned and resubmits only unfinished items, and a pool that
keeps dying degrades to serial execution.  A grid that still cannot
finish salvages its completed cells into the store and raises
:class:`~repro.errors.GridInterrupted`, so the next run resumes via
read-through.
"""

from .pool import (
    DEFAULT_POLICY,
    ExecPolicy,
    default_jobs,
    evaluate_cells,
    parallel_map,
    run_grid,
)
from .store import CorruptStoreWarning, ResultStore

__all__ = [
    "CorruptStoreWarning",
    "DEFAULT_POLICY",
    "ExecPolicy",
    "ResultStore",
    "default_jobs",
    "evaluate_cells",
    "parallel_map",
    "run_grid",
]
