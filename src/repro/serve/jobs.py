"""Background tuning jobs: dedup by plan key, run off the request path.

A cold ``POST /plan`` never tunes inline — it enqueues a job here and
returns ``202`` with a handle immediately, so one slow tuning session
cannot stall the serving threads.  The manager's core guarantee is
**single-flight per plan key**: any number of concurrent identical
requests collapse onto one job (the first submitter creates it, every
later one gets the same handle back), which is what makes "N clients
ask for the same cold plan" cost exactly one fleet tuning run.

Jobs survive completion: a finished job stays pollable at
``GET /plan/<id>`` until the server exits, while the *store* is the
durable record — a restarted server answers the same plan from the
warm store without any job at all.  Since PR 9 the job *pipeline* is
durable too: every state transition is written to a per-root
write-ahead journal (:mod:`repro.serve.journal`) before/after the
transition takes effect, and a restarted server replays jobs that were
queued or running when its predecessor died, under their original ids
(clients keep polling the same handle across the restart).

Operational guards:

* **graceful drain** — :meth:`JobManager.drain` stops accepting jobs
  (submits raise :class:`JobsDraining`, which the server maps to 503 +
  ``Retry-After``), waits for active jobs up to a deadline, and
  journals ``interrupted`` for any survivor so the next incarnation
  replays it;
* **stuck-job watchdog** — with a ``job_timeout``, a daemon thread
  fails any job running longer than the allowance and frees its
  single-flight key, so clients can resubmit instead of polling a
  zombie forever (the abandoned runner thread's late transition is
  discarded: terminal states are sticky);
* **shutdown race** — ``ThreadPoolExecutor.submit`` after shutdown
  raises ``RuntimeError``; the manager catches it, rolls the job table
  back (no forever-queued job holding its key), journals the rejection,
  and surfaces :class:`JobsDraining`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (journal
    from .journal import JobJournal  # imports the states defined here)

#: job lifecycle states
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: states during which a plan key collapses onto the existing job
ACTIVE_STATES = (QUEUED, RUNNING)

#: states a job can never leave (watchdog-failed jobs stay failed even
#: when their abandoned runner thread eventually reports in)
TERMINAL_STATES = (DONE, FAILED)


class JobsDraining(RuntimeError):
    """The manager is draining/shut down and accepts no new jobs.

    The server maps this to ``503`` with a ``Retry-After`` header — the
    client-visible spelling of "ask again once the restart settles".
    """


@dataclass
class PlanJob:
    """One background tuning job for one plan key."""

    id: str
    plan_key: tuple
    tenant: str
    request: dict                  # the normalized plan request fields
    state: str = QUEUED
    error: str = ""
    created_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: >0 when this run is a journal replay of an interrupted job; the
    #: count of prior incarnations marked ``interrupted`` in the journal
    incarnation: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def snapshot(self) -> dict:
        """JSON-ready view for ``/plan/<id>`` and ``/status``."""
        with self.lock:
            out = {
                "job": self.id,
                "state": self.state,
                "tenant": self.tenant,
                "request": dict(self.request),
            }
            if self.error:
                out["error"] = self.error
            if self.incarnation:
                out["recovered"] = True
                out["interrupted_incarnations"] = self.incarnation
            if self.started_at is not None and self.finished_at is not None:
                out["tuning_wall_s"] = round(
                    self.finished_at - self.started_at, 3
                )
            return out


class JobManager:
    """Single-flight job table + a small worker pool to run them.

    ``runner`` is the function that actually tunes (the server's
    ``_run_job``); it is called on a pool thread with the job as its
    only argument and must raise on failure.  ``journal`` (optional)
    receives every state transition; ``job_timeout`` arms the stuck-job
    watchdog, with ``on_timeout`` called once per timed-out job (the
    server's metrics hook).
    """

    def __init__(
        self,
        runner: Callable[[PlanJob], None],
        threads: int = 1,
        clock: Callable[[], float] = time.monotonic,
        journal: "JobJournal | None" = None,
        job_timeout: float | None = None,
        on_timeout: Callable[[PlanJob], None] | None = None,
    ) -> None:
        self._runner = runner
        self._clock = clock
        self._journal = journal
        self._job_timeout = job_timeout
        self._on_timeout = on_timeout
        self._pool = ThreadPoolExecutor(
            max_workers=max(threads, 1),
            thread_name_prefix="repro-serve-job",
        )
        self._lock = threading.Lock()
        self._jobs: dict[str, PlanJob] = {}
        self._active: dict[tuple, str] = {}   # plan key -> active job id
        self._seq = 0
        self._draining = False
        # O(1) per-state counters maintained on every transition;
        # `/status` is polled (by `repro top` among others) while
        # finished jobs accumulate for the server's lifetime, so a
        # scan over all jobs ever would grow without bound
        self._counts = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        self._stop_watchdog = threading.Event()
        self._watchdog: threading.Thread | None = None
        if job_timeout is not None and job_timeout > 0:
            self._watchdog = threading.Thread(
                target=self._watch, name="repro-serve-watchdog", daemon=True
            )
            self._watchdog.start()

    def reserve_seq(self, floor: int) -> None:
        """Advance the id sequence past ``floor`` (journal replay seeds
        this so fresh jobs never collide with recovered ids)."""
        with self._lock:
            self._seq = max(self._seq, floor)

    def submit(self, plan_key: tuple, tenant: str, request: dict,
               landed: Callable[[], bool] | None = None,
               ) -> tuple[PlanJob | None, bool]:
        """The job for ``plan_key`` — existing-active or freshly created.

        Returns ``(job, created)``; ``created`` is False when the call
        collapsed onto a job another request already enqueued (the
        single-flight path).  The check-then-create is one critical
        section, so two racing cold requests can never both create.
        Raises :class:`JobsDraining` while draining/shut down.

        ``landed`` re-checks whether the work is already done.  A
        caller's store lookup can miss just before a job's write, and
        its submit arrive just after that job freed the key: without a
        re-check, that straggler starts a second job.  When no job is
        active for the key, ``landed()`` runs inside the critical
        section — a job frees its key there, after its write — and if
        it answers true, no job is created and ``(None, False)`` is
        returned.
        """
        with self._lock:
            if self._draining:
                raise JobsDraining("server is draining; retry later")
            active_id = self._active.get(plan_key)
            if active_id is not None:
                return self._jobs[active_id], False
            if landed is not None and landed():
                return None, False
            self._seq += 1
            job = PlanJob(
                id=f"job-{self._seq:06d}",
                plan_key=plan_key,
                tenant=tenant,
                request=request,
                created_at=self._clock(),
            )
            self._register(job)
        self._start(job)
        return job, True

    def resubmit(self, plan_key: tuple, tenant: str, request: dict,
                 job_id: str, incarnation: int = 1) -> PlanJob | None:
        """Re-enqueue a journal-recovered job under its original id.

        Returns ``None`` (instead of creating) when the id is already
        live, another job owns the plan key, or the manager is draining
        — all cases where replaying would double the work.
        """
        with self._lock:
            if (self._draining or job_id in self._jobs
                    or plan_key in self._active):
                return None
            job = PlanJob(
                id=job_id,
                plan_key=plan_key,
                tenant=tenant,
                request=request,
                created_at=self._clock(),
                incarnation=incarnation,
            )
            self._register(job)
        self._start(job)
        return job

    def get(self, job_id: str) -> PlanJob | None:
        with self._lock:
            return self._jobs.get(job_id)

    def counts(self) -> dict[str, int]:
        """Jobs per state (for ``/status`` and the serve gauges) — O(1)
        from the transition-maintained counters, however many finished
        jobs have accumulated."""
        with self._lock:
            return dict(self._counts)

    def active(self) -> list[PlanJob]:
        """Jobs currently queued or running, in id order."""
        with self._lock:
            return sorted(
                (j for j in self._jobs.values() if j.state in ACTIVE_STATES),
                key=lambda j: j.id,
            )

    # -- lifecycle ----------------------------------------------------------

    def drain(self, timeout: float,
              poll_s: float = 0.05) -> list[PlanJob]:
        """Graceful shutdown: refuse new jobs, wait for active ones.

        Blocks until every queued/running job reaches a terminal state
        or ``timeout`` elapses, then shuts the pool down (cancelling
        never-started queued jobs) and journals ``interrupted`` for
        every survivor so the next incarnation replays it.  Returns the
        survivors (empty = fully drained).
        """
        with self._lock:
            self._draining = True
        deadline = time.monotonic() + max(timeout, 0.0)
        while True:
            with self._lock:
                remaining = self._counts[QUEUED] + self._counts[RUNNING]
            if not remaining or time.monotonic() >= deadline:
                break
            time.sleep(poll_s)
        self._stop_watchdog.set()
        self._pool.shutdown(wait=False, cancel_futures=True)
        leftover = self.active()
        for job in leftover:
            self._record(job, "interrupted",
                         error=f"drain timeout ({timeout:g}s) expired")
        return leftover

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            self._draining = True
        self._stop_watchdog.set()
        self._pool.shutdown(wait=wait)

    # -- internals -----------------------------------------------------------

    def _register(self, job: PlanJob) -> None:
        """Insert a fresh QUEUED job (caller holds the manager lock)."""
        self._jobs[job.id] = job
        self._active[job.plan_key] = job.id
        self._counts[QUEUED] += 1

    def _start(self, job: PlanJob) -> None:
        """Journal the enqueue, then hand the job to the pool.

        Journal-first is the write-ahead ordering: a crash between the
        two leaves a ``queued`` record, and replay re-enqueues.  A pool
        that was shut down concurrently raises ``RuntimeError`` from
        ``submit`` — roll the table back so the plan key is not leaked
        behind a job that will never run, journal the rejection, and
        surface :class:`JobsDraining` (the 503 path).
        """
        self._record(job, QUEUED, with_request=True)
        try:
            self._pool.submit(self._run, job)
        except RuntimeError:
            with self._lock:
                if self._active.get(job.plan_key) == job.id:
                    del self._active[job.plan_key]
                if self._jobs.pop(job.id, None) is not None:
                    self._counts[QUEUED] -= 1
            self._record(job, "interrupted",
                         error="rejected: job executor already shut down")
            raise JobsDraining(
                "server is shutting down; retry later"
            ) from None

    def _transition(self, job: PlanJob, state: str, error: str = "") -> bool:
        """Move a job to ``state``, maintaining counters, the
        single-flight table, and the journal.  Returns False (and does
        nothing) when the job is already terminal — that is what makes
        a watchdog-failed job immune to its abandoned runner thread
        reporting a late success."""
        with self._lock:
            with job.lock:
                prev = job.state
                if prev in TERMINAL_STATES:
                    return False
                job.state = state
                if error:
                    job.error = error
                if state == RUNNING:
                    job.started_at = self._clock()
                if state in TERMINAL_STATES:
                    job.finished_at = self._clock()
            self._counts[prev] -= 1
            self._counts[state] += 1
            if (state in TERMINAL_STATES
                    and self._active.get(job.plan_key) == job.id):
                # only now may a new request re-create a job for this
                # key (and only if the store somehow still misses —
                # normally the finished job's cell answers from the
                # store forever)
                del self._active[job.plan_key]
            # journal inside the critical section: transition order and
            # record order must agree (replay is last-record-wins)
            self._record(job, state, error=error)
        return True

    def _record(self, job: PlanJob, state: str, error: str = "",
                with_request: bool = False) -> None:
        if self._journal is None:
            return
        self._journal.record(
            job.id,
            state,
            tenant=job.tenant,
            request=job.request if with_request else None,
            error=error,
            incarnation=job.incarnation,
        )

    # -- watchdog ------------------------------------------------------------

    def _watch(self) -> None:
        """Fail jobs that exceed ``job_timeout``; frees their keys."""
        assert self._job_timeout is not None
        interval = min(max(self._job_timeout / 4.0, 0.02), 1.0)
        while not self._stop_watchdog.wait(interval):
            now = self._clock()
            with self._lock:
                stuck = [
                    (job, now - job.started_at)
                    for job in self._jobs.values()
                    if job.state == RUNNING
                    and job.started_at is not None
                    and now - job.started_at > self._job_timeout
                ]
            for job, elapsed in stuck:
                timed_out = self._transition(
                    job, FAILED,
                    error=(
                        f"watchdog: still running after {elapsed:.1f}s "
                        f"(> --job-timeout {self._job_timeout:g}s); "
                        f"single-flight key freed for resubmission"
                    ),
                )
                if timed_out and self._on_timeout is not None:
                    self._on_timeout(job)

    # -- pool side -----------------------------------------------------------

    def _run(self, job: PlanJob) -> None:
        if not self._transition(job, RUNNING):
            return
        try:
            self._runner(job)
        except Exception as exc:  # noqa: BLE001 - surfaced via the job
            self._transition(job, FAILED, error=f"{type(exc).__name__}: {exc}")
        else:
            self._transition(job, DONE)
