"""Process-pool sharding with deterministic merging and fault tolerance.

:func:`parallel_map` is the one primitive: evaluate ``fn`` over a list
of argument tuples on ``jobs`` worker processes, returning results in
**input order** (never completion order).  Each worker is seeded with
the parent's FFT wisdom (and the ambient fault spec, see
:mod:`repro.faults`) at startup and ships its accumulated wisdom back
with every result, so planner work done anywhere is reused everywhere.
Each attempt runs under a fresh metrics registry (and tracer, when the
caller traces) whose snapshot and spans ride back, failed or not, and
are merged into the caller's, so counts and spans never depend on where
an item ran.  ``jobs=1`` (the default) bypasses the pool entirely and
runs in-process — the reference path the parallel one must match
byte-for-byte.

Failure handling is governed by an :class:`ExecPolicy`:

* a raising item is retried with exponential backoff, up to
  ``retries`` extra attempts, then reported as an
  :class:`~repro.errors.ItemFailedError` carrying the item's label and
  the worker-side traceback;
* an item exceeding ``timeout_s`` is abandoned (its worker may be hung
  — the process is terminated at pool shutdown) and retried the same
  way, ending in :class:`~repro.errors.ItemTimeoutError`.  The
  abandoned attempt's counts and spans are lost with its process; the
  parent counts it in ``pool_timeouts_total`` (a serial item cannot be
  interrupted, so only the pool path times out);
* a dead worker (``BrokenProcessPool``) triggers a pool respawn that
  resubmits only the unfinished items, up to ``pool_respawns`` times,
  after which the remaining items degrade gracefully to in-process
  serial execution;
* whatever happens, every item is driven to success or a recorded
  failure — :class:`~repro.errors.ParallelMapError` carries the partial
  results so grid callers can salvage completed work.

:func:`evaluate_cells` specializes this for benchmark grids, layering
the caller's :class:`~repro.exec.store.ResultStore` and the process
store in front of the pool; on failure it writes every completed cell
to the caller's store and raises :class:`~repro.errors.GridInterrupted`,
so a re-run resumes via store read-through and executes only the
missing cells.
"""

from __future__ import annotations

import os
import time
import traceback
from contextlib import nullcontext
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

# a module reference: runner imports .store, so it may be mid-import here
from ..bench import runner
from ..errors import (
    GridInterrupted,
    ItemFailedError,
    ItemTimeoutError,
    ParallelMapError,
)
from ..faults import current_faults, install_faults, parse_faults
from ..fft.wisdom import GLOBAL_WISDOM
from ..machine.platforms import Platform
from ..obs import registry as metrics
from ..obs.export import add_span_records, span_records
from ..obs.tracer import WALL, Tracer, current_tracer, tracing
from ..tuning.evalstore import EvalStore
from .store import CellResult, ResultStore

#: completion callback: ``progress(done, total, label)`` — called once
#: per finished item, in completion order (the CLI's live ticker)
ProgressFn = Callable[[int, int, str], None]


@dataclass(frozen=True)
class ExecPolicy:
    """Failure-handling policy for :func:`parallel_map`.

    ``clock`` and ``sleep`` are injectable so the retry/backoff logic is
    testable against a fake clock (no wall-clock waits in the suite).
    ``timeout_s=None`` disables per-item timeouts; timeouts are only
    enforceable on the pool path (a serial in-process item cannot be
    interrupted).
    """

    #: per-item wall-clock timeout in seconds (None = no timeout)
    timeout_s: float | None = None
    #: extra attempts after the first failure/timeout
    retries: int = 2
    #: backoff before retry k (1-based): ``backoff_s * factor**(k-1)``,
    #: capped at ``max_backoff_s``
    backoff_s: float = 0.25
    backoff_factor: float = 2.0
    max_backoff_s: float = 10.0
    #: pool respawns after BrokenProcessPool before degrading to serial
    pool_respawns: int = 2
    clock: Callable[[], float] = time.monotonic
    sleep: Callable[[float], None] = time.sleep

    def backoff(self, failures: int) -> float:
        """Delay before the retry following the ``failures``-th failure."""
        raw = self.backoff_s * self.backoff_factor ** (failures - 1)
        return min(raw, self.max_backoff_s)


#: the default policy every caller gets unless it passes its own
DEFAULT_POLICY = ExecPolicy()


def default_jobs(explicit: int | None = None) -> int:
    """Resolve a worker count: an explicit value wins, then ``$REPRO_JOBS``
    (``0``/``auto`` = all cores), else serial."""
    if explicit is None:
        env = os.environ.get("REPRO_JOBS", "").strip().lower()
        if not env:
            return 1
        explicit = 0 if env == "auto" else int(env)
    if explicit == 0:
        return os.cpu_count() or 1
    return max(1, explicit)


def _chaos_maybe_kill(label: str) -> None:
    """Test/bench hook: die abruptly once, like a real worker crash.

    ``$REPRO_EXEC_CHAOS="kill-once:<substr>@<dir>"`` makes the first
    worker whose item label contains ``<substr>`` hard-exit before doing
    any work.  The "once" latch is an ``O_EXCL``-created sentinel file
    in ``<dir>``, atomic across concurrent workers, so the retried item
    succeeds — this is how the suite and ``bench_smoke`` exercise the
    BrokenProcessPool recovery path end to end.
    """
    spec = os.environ.get("REPRO_EXEC_CHAOS", "")
    if not spec.startswith("kill-once:"):
        return
    substr, _, where = spec[len("kill-once:"):].partition("@")
    if substr and substr not in label:
        return
    sentinel = os.path.join(where or ".", "chaos-killed")
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os._exit(1)


def _worker_init(wisdom_json: str, faults_text: str = "") -> None:
    if wisdom_json:
        GLOBAL_WISDOM.import_json(wisdom_json)
    if faults_text:
        # Mirror the parent's ambient fault spec (repro.faults): every
        # simulation this worker runs sees the same injected machine.
        install_faults(parse_faults(faults_text))


def _tb_text(exc: BaseException) -> str:
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    ).rstrip()


def _invoke(
    fn: Callable[..., Any], args: tuple, label: str = "",
    rank_spans: bool | None = None,
) -> tuple[Any, str | None, str, dict, list, float]:
    """One pool attempt in a worker process: its value, the traceback
    it raised (``None`` on success), the worker's wisdom, and what the
    attempt counted and traced, failed or not — its registry snapshot,
    span records and wall seconds.  ``rank_spans`` is the caller's
    tracer setting, or ``None`` when it traces nothing (no spans)."""
    _chaos_maybe_kill(label)
    t0 = time.perf_counter()
    tr = None if rank_spans is None else Tracer(rank_spans=rank_spans)
    value = cause = None
    with metrics.scoped_registry() as reg, \
            (nullcontext() if tr is None else tracing(tr)):
        try:
            value = fn(*args)
        except Exception as exc:
            cause = _tb_text(exc)
    return (value, cause, GLOBAL_WISDOM.export_json(), reg.snapshot(),
            [] if tr is None else span_records(tr),
            time.perf_counter() - t0)


class _Run:
    """State of one :func:`parallel_map` invocation (pool path).

    ``tr`` is the tracer ``pool`` spans go to — normally the ambient
    :func:`current_tracer`, but callers may pass an explicit tracer to
    :func:`parallel_map` (the distributed worker does, so per-lease
    telemetry never touches the process-global tracer stack).  Item
    spans go to the ambient ``item_tr``, where a serial item traces.
    """

    def __init__(self, fn, argtuples, labels, policy, progress, tr):
        self.fn = fn
        self.argtuples = argtuples
        self.labels = labels
        self.policy = policy
        self.progress = progress
        self.tr = tr
        self.item_tr = current_tracer()
        total = len(argtuples)
        self.total = total
        self.results: list[Any] = [None] * total
        self.wisdoms: list[str] = [""] * total
        #: per item: (clock offset, span records) of each pool attempt,
        #: added to ``item_tr`` in input order by :meth:`outcome`
        self.spans: list[list[tuple[float, list]]] = [[] for _ in range(total)]
        self.failures: dict[int, ItemFailedError] = {}
        self.attempts = [0] * total
        self.finished = 0
        #: items waiting out a backoff: index -> earliest resubmit time
        self.retry_at: dict[int, float] = {}

    # -- per-item outcomes -------------------------------------------------

    def succeed(self, i: int, value: Any, wisdom: str, worker_s: float,
                mode: str) -> None:
        """Record item ``i``'s value."""
        self.results[i] = value
        self.wisdoms[i] = wisdom
        self.finished += 1
        metrics.count("pool_items_total",
                      help="Pool items driven to success.", mode=mode)
        metrics.observe("pool_item_seconds", worker_s,
                        help="Per-item worker-side wall seconds.")
        if self.tr is not None:
            t1 = self.tr.wall()
            self.tr.add_span(
                "pool", self.labels[i], max(t1 - worker_s, 0.0), t1, WALL,
                {"mode": mode, "worker_s": worker_s},
            )
        if self.progress is not None:
            self.progress(self.finished, self.total, self.labels[i])

    def fail_attempt(self, i: int, cause: str, timed_out: bool) -> bool:
        """Record one failed attempt; returns True if the item should be
        retried (and schedules the backoff), False if it is now failed
        for good."""
        self.attempts[i] += 1
        policy = self.policy
        metrics.count("pool_item_errors_total",
                      help="Failed pool item attempts.")
        if timed_out:
            metrics.count("pool_timeouts_total",
                          help="Pool items abandoned past their deadline.")
        if self.attempts[i] <= policy.retries:
            metrics.count("pool_retries_total",
                          help="Pool item retry resubmissions.")
            self.retry_at[i] = policy.clock() + policy.backoff(self.attempts[i])
            return True
        cls = ItemTimeoutError if timed_out else ItemFailedError
        self.failures[i] = cls(self.labels[i], cause, attempts=self.attempts[i])
        self.finished += 1
        if self.progress is not None:
            self.progress(self.finished, self.total, self.labels[i])
        return False

    def outcome(self) -> list[Any]:
        # Wisdom merges are first-wins per key and every entry is a pure
        # function of its key, so import order cannot change the final
        # store; input order keeps the merge reproducible regardless.
        for wisdom_json in self.wisdoms:
            if wisdom_json:
                GLOBAL_WISDOM.import_json(wisdom_json)
        for shipped in self.spans:
            for offset, records in shipped:
                add_span_records(self.item_tr, records, offset)
        if self.failures:
            raise ParallelMapError(self.results, self.failures)
        return self.results


def _run_serial(run: _Run, items: Sequence[int]) -> None:
    """Drive ``items`` to success or recorded failure in-process.

    Both the ``jobs=1`` reference path and the pool's graceful
    degradation land here, so the serial path emits the same progress
    events, spans, and counters as the pool path (``worker_s`` measured
    around the call, ``pool_item_seconds`` observed) — only the span's
    ``mode`` attribute tells them apart.  Timeouts are not enforceable
    in-process and are ignored.
    """
    policy = run.policy
    for i in items:
        while True:
            t0 = time.perf_counter()
            try:
                value = run.fn(*run.argtuples[i])
            except Exception as exc:
                if run.fail_attempt(i, _tb_text(exc), timed_out=False):
                    policy.sleep(policy.backoff(run.attempts[i]))
                    continue
                break
            run.succeed(i, value, "", time.perf_counter() - t0, "serial")
            break
    run.retry_at.clear()


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down without waiting for hung or dead workers.

    ``_processes`` is a private executor attribute, so everything here
    is best-effort: if a future interpreter renames it we merely lose
    the hard kill, not correctness.
    """
    procs = getattr(pool, "_processes", None)
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    if procs:
        for proc in list(procs.values()):
            try:
                proc.terminate()
            except Exception:
                pass


def _drain(run: _Run, pool: ProcessPoolExecutor,
           items: Sequence[int]) -> tuple[list[int], bool]:
    """Submit ``items`` on ``pool`` and drive them, retries included,
    to success or recorded failure.

    Returns ``(left, abandoned)``: the items still unfinished when the
    pool broke (empty when it drained) and whether an item was abandoned
    past its deadline — its worker may be hung, so the pool must be
    terminated rather than joined.
    """
    policy = run.policy
    rank_spans = None if run.item_tr is None else run.item_tr.rank_spans
    queue = list(items)                # to submit now, in order
    tracked: dict[Future, int] = {}
    deadlines: dict[Future, float] = {}
    abandoned = False

    def left() -> list[int]:
        out = sorted(set(queue) | set(tracked.values()) | set(run.retry_at))
        run.retry_at.clear()
        return out

    while queue or tracked or run.retry_at:
        now = policy.clock()
        # resubmit items whose backoff has elapsed
        for i in sorted(i for i, t in run.retry_at.items() if t <= now):
            del run.retry_at[i]
            queue.append(i)
        try:
            while queue:
                i = queue[0]
                fut = pool.submit(_invoke, run.fn, run.argtuples[i],
                                  run.labels[i], rank_spans)
                queue.pop(0)
                tracked[fut] = i
                if policy.timeout_s is not None:
                    deadlines[fut] = policy.clock() + policy.timeout_s
        except (BrokenProcessPool, RuntimeError):
            return left(), abandoned
        if not tracked:
            # everything is waiting out a backoff
            wake = min(run.retry_at.values())
            policy.sleep(max(wake - policy.clock(), 0.0))
            continue
        horizon = [*deadlines.values(), *run.retry_at.values()]
        wait_s = max(min(horizon) - now, 0.0) if horizon else None
        done, _ = wait(set(tracked), timeout=wait_s,
                       return_when=FIRST_COMPLETED)
        for fut in done:
            i = tracked.pop(fut)
            deadlines.pop(fut, None)
            try:
                value, cause, wisdom_json, counts, spans, worker_s = (
                    fut.result())
            except BrokenProcessPool:
                # every sibling future is about to raise the same
                # thing: recover the whole in-flight set at once
                queue.append(i)
                return left(), abandoned
            except Exception as exc:
                run.fail_attempt(i, _tb_text(exc), timed_out=False)
                continue
            # what the attempt counted and traced, failed or not (the
            # serial path does both in place); spans wait for outcome()
            if counts and metrics.metrics_enabled():
                metrics.current_registry().merge(counts)
            if spans and run.item_tr is not None:
                run.spans[i].append((run.item_tr.wall() - worker_s, spans))
            if cause is not None:
                run.fail_attempt(i, cause, timed_out=False)
            else:
                run.succeed(i, value, wisdom_json, worker_s, "pool")
        # abandon items past their deadline (their worker may be hung;
        # it is reclaimed when the pool is torn down)
        now = policy.clock()
        for fut in [f for f, t in deadlines.items() if t <= now]:
            i = tracked.pop(fut)
            del deadlines[fut]
            abandoned = True
            run.fail_attempt(
                i, f"exceeded per-item timeout of {policy.timeout_s}s",
                timed_out=True,
            )
    return [], abandoned


def _run_pooled(run: _Run, jobs: int) -> None:
    """Drive all items through a process pool, respawning it up to
    ``pool_respawns`` times after it breaks, then finish in-process."""
    faults = current_faults()
    faults_text = faults.key() if faults is not None else ""
    items: list[int] = list(range(run.total))
    for _ in range(run.policy.pool_respawns + 1):
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, run.total),
            initializer=_worker_init,
            initargs=(GLOBAL_WISDOM.export_json(), faults_text),
        )
        try:
            items, abandoned = _drain(run, pool, items)
        except BaseException:
            _terminate_pool(pool)
            raise
        if items or abandoned:
            # hung or dead workers may linger: hard-terminate
            _terminate_pool(pool)
        else:
            pool.shutdown(wait=True)
        if not items:
            return
        metrics.count("pool_respawns_total",
                      help="Process-pool respawns after a broken pool.")
    # the pool keeps dying: degrade gracefully to serial
    metrics.count("pool_serial_fallbacks_total",
                  help="Graceful degradations to in-process execution.")
    _run_serial(run, items)


def parallel_map(
    fn: Callable[..., Any],
    argtuples: Sequence[tuple],
    jobs: int | None = None,
    labels: Sequence[str] | None = None,
    progress: ProgressFn | None = None,
    policy: ExecPolicy | None = None,
    tracer: "Any | None" = None,
) -> list[Any]:
    """``[fn(*args) for args in argtuples]`` over a process pool.

    ``fn`` must be a module-level (picklable) callable whose value is a
    pure function of its arguments; results are merged by input
    position, making the output independent of worker scheduling.

    ``progress`` receives one completion event per finished item (in
    completion order — the live ticker's feed); ``labels`` names the
    items for progress lines, trace spans, and error reports.  When a
    :mod:`repro.obs` tracer is installed, each item's busy interval is
    recorded as a wall-clock span on the ``pool`` track — workers
    measure their own duration and ship it back with the result.  Pool
    items also ship their registry counts and spans, failed attempts
    included, merged into the caller's registry and ambient tracer, so
    ``jobs`` never changes a count or a span name (besides the ``mode``
    of ``pool_items_total`` and of ``pool`` spans).

    ``policy`` (default :data:`DEFAULT_POLICY`) governs retries,
    per-item timeouts, backoff, and pool-respawn budgets; see
    :class:`ExecPolicy`.  Items that still fail after retries surface
    as a single :class:`~repro.errors.ParallelMapError` raised after
    every other item has been driven to completion — the exception
    carries the partial results, so callers can salvage finished work.
    """
    argtuples = [tuple(a) for a in argtuples]
    jobs = default_jobs(jobs)
    total = len(argtuples)
    name = getattr(fn, "__name__", "item")
    if labels is None:
        labels = [f"{name}[{i}]" for i in range(total)]
    run = _Run(fn, argtuples, list(labels), policy or DEFAULT_POLICY,
               progress, tracer if tracer is not None else current_tracer())
    if jobs <= 1 or total <= 1:
        _run_serial(run, range(total))
    else:
        _run_pooled(run, jobs)
    return run.outcome()


def _cell_with_evals(
    plat: str, p: int, n: int, budget: int, evals_jsonl: str
) -> tuple[CellResult, str]:
    """One cell evaluation against a private copy of the shared eval
    store (module-level: pool workers pickle it).  Returns the cell and
    the worker's *new* evaluations as JSONL (the way workers ship FFT
    wisdom back — the parent merges the deltas in input order)."""
    evals = EvalStore.from_jsonl(evals_jsonl)
    cell = runner.evaluate_cell(plat, p, n, budget, eval_store=evals)
    return cell, evals.new_jsonl()


def evaluate_cells(
    platform: Platform | str,
    cells: Sequence[tuple[int, int]],
    jobs: int | None = None,
    max_evaluations: int | None = None,
    store: ResultStore | None = None,
    progress: ProgressFn | None = None,
    eval_store: EvalStore | None = None,
    policy: ExecPolicy | None = None,
    dispatch: str = "local",
    dist: "Any | None" = None,
    note: Callable[[str], None] | None = None,
) -> list[CellResult]:
    """Evaluate a grid of ``(p, n)`` cells, sharded over ``jobs`` workers.

    Results come back in input order and are kept in the process store
    (:data:`repro.bench.runner.PROCESS_STORE`) for later
    ``evaluate_cell`` calls.  Layering, per cell: ``store`` (if given)
    → process store → pool evaluation; every returned cell ``store``
    did not hold is written to it.  ``progress`` sees one event per
    cell actually evaluated (store hits are free and silent).
    Cell keys include the ambient fault spec (:mod:`repro.faults`), so
    fault-injected grids never alias fault-free ones.

    ``eval_store`` is the shared per-evaluation pool (see
    :mod:`repro.tuning.evalstore`): each worker starts from a snapshot
    of it, answers already-timed configurations for free, and ships its
    new evaluations back with the cell result; deltas are merged into
    ``eval_store`` in input order (like FFT wisdom), so the outcome is
    independent of worker scheduling.

    If cells still fail after ``policy``'s retries, every *completed*
    cell is written the same way first, then
    :class:`~repro.errors.GridInterrupted` is raised carrying them — a
    re-run with the same store resumes via read-through and evaluates
    only the missing cells.  ``GridInterrupted.salvaged`` dedupes
    against cells the store already held before this run (read-through
    hits), so the reported salvage count matches the files the run
    actually added to disk.

    ``dispatch`` selects where the ``todo`` cells run: ``"local"`` uses
    the in-process pool, ``"dist"`` serves them from a coordinator to
    ``repro worker`` processes (:func:`repro.dist.dist_map`, configured
    by ``dist``, a :class:`~repro.dist.DistConfig`).  Both modes share
    the store read-through layering, the per-cell eval-store
    snapshot, and this function's input-order harvest — which is why
    they produce byte-identical stores.  ``note`` (dist only) receives
    one-line fleet status strings for the live ticker.
    """
    if dispatch not in ("local", "dist"):
        raise ValueError(f"unknown dispatch mode {dispatch!r}")
    name = platform if isinstance(platform, str) else platform.name
    found: dict[tuple, CellResult] = {}
    held: set[tuple] = set()           # keys ``store`` already held
    pending: set[tuple] = set()
    todo: list[tuple[str, int, int, int, str]] = []
    for p, n in cells:
        key = runner.cell_key(name, p, n, max_evaluations)
        if key in found or key in pending:
            continue  # duplicate input cell: schedule it once
        cell = None if store is None else store.get(*key)
        if cell is not None:
            held.add(key)
        else:
            cell = runner.PROCESS_STORE.get(*key)
        if cell is not None:
            found[key] = cell
            continue
        todo.append(key)
        pending.add(key)
    labels = [f"{plat} p{p} N{n}" for (plat, p, n, _b, _f) in todo]

    def harvest(values: Sequence[Any]) -> None:
        """Fold finished pool values (cells or cell+delta tuples) into
        ``found`` and the shared eval store, then write ``found`` to the
        stores.  ``None`` entries (failed items) are skipped — that is
        the salvage path."""
        for value in values:
            if value is None:
                continue
            if eval_store is None:
                cell = value
            else:
                cell, delta = value
                # Input-order merge of worker deltas (first-wins per
                # key, like the wisdom merge: every record is a pure
                # function of its key).
                eval_store.merge(EvalStore.from_jsonl(delta))
            found[cell.key()] = cell
        for key, cell in found.items():
            runner.PROCESS_STORE.put(cell)
            if store is not None and key not in held:
                store.put(cell)

    extra: dict[str, Any] = {}
    if policy is not None:
        extra["policy"] = policy
    snapshot = None if eval_store is None else eval_store.to_jsonl()
    if eval_store is None:
        worker_fn = runner.evaluate_cell
        argtuples = [(plat, p, n, budget) for (plat, p, n, budget, _f) in todo]
    else:
        worker_fn = _cell_with_evals
        argtuples = [
            (plat, p, n, budget, snapshot)
            for (plat, p, n, budget, _f) in todo
        ]
    # Per-run registry scope (reset safety): reuse the caller's installed
    # registry when one exists (tests / the tuning service observe the
    # run through it), otherwise push a fresh one so back-to-back grid
    # runs in one process never leak counts into each other.
    with metrics.run_registry():
        try:
            if dispatch == "dist" and todo:
                # Imported lazily: repro.dist's worker loop imports this
                # module, so a top-level import would be circular.
                from ..dist import DistConfig, dist_map

                computed = dist_map(
                    name, todo, labels, snapshot,
                    dist if dist is not None else DistConfig(),
                    store=store, progress=progress, note=note,
                    faults=runner.active_fault_key(),
                )
            else:
                computed = parallel_map(
                    worker_fn, argtuples, jobs, labels=labels,
                    progress=progress, **extra,
                )
        except ParallelMapError as err:
            harvest(err.results)
            failures = {
                (todo[i][1], todo[i][2]): item_err
                for i, item_err in err.failures.items()
            }
            salvaged = [
                cell for key, cell in found.items() if key not in held
            ]
            raise GridInterrupted(
                list(found.values()), failures, salvaged=salvaged
            ) from err
        harvest(computed)
    return [
        found[runner.cell_key(name, p, n, max_evaluations)] for p, n in cells
    ]


def run_grid(
    platform: Platform | str,
    cells: Sequence[tuple[int, int]],
    jobs: int | None = None,
    max_evaluations: int | None = None,
    store_dir: str | os.PathLike | None = None,
    progress: ProgressFn | None = None,
    eval_store_path: str | os.PathLike | None = None,
    policy: ExecPolicy | None = None,
    dispatch: str = "local",
    dist: "Any | None" = None,
    note: Callable[[str], None] | None = None,
) -> tuple[list[CellResult], EvalStore | None]:
    """CLI-facing wrapper: like :func:`evaluate_cells` with an optional
    store directory (cell results) and eval-store path (shared
    per-evaluation pool, loaded before and atomically merge-saved after)
    instead of store objects.  Returns the cells and the loaded/updated
    :class:`EvalStore` (``None`` when no path was given).  On
    :class:`~repro.errors.GridInterrupted` the eval store is still
    saved — the salvaged evaluations survive for the resuming run."""
    store = ResultStore(store_dir) if store_dir is not None else None
    evals = EvalStore.load(eval_store_path) if eval_store_path is not None else None
    try:
        results = evaluate_cells(
            platform, cells, jobs, max_evaluations, store, progress, evals,
            policy, dispatch=dispatch, dist=dist, note=note,
        )
    except GridInterrupted:
        if evals is not None:
            evals.save(eval_store_path)
        raise
    if evals is not None:
        evals.save(eval_store_path)
    return results, evals
