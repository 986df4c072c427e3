"""The long-lived tuned-plan server (`repro serve`).

One process that answers "what configuration should I run?" for any
number of clients, the Active-Harmony-as-a-service shape the ROADMAP
calls for:

* ``POST /plan`` — body ``{platform, p, n, variant?, budget?, faults?,
  objective?, tenant?}``.  A warm hit (the tenant's
  :class:`~repro.exec.ResultStore` already holds the cell) answers
  ``200`` immediately with tuned params + provenance and **zero
  simulations**; a cold miss enqueues a background tuning job
  (single-flight per plan key) and answers ``202`` with a pollable
  handle.
* ``GET /plan/<id>`` — poll a job; ``done`` jobs answer with the same
  payload a warm hit produces.
* ``GET /status`` — uptime, tenants, job counts, store counters.
* ``GET /metrics`` — the server's registry (``serve_*`` lifecycle
  counters + everything the tuning jobs published, including the
  internal coordinator's ``dist_*`` when a fleet ran) as Prometheus
  text exposition, same idiom as the coordinator's.

Tuning jobs run through the standard
:func:`~repro.exec.evaluate_cells` path — in-process on the job thread
by default, or dispatched to a ``repro worker`` fleet via the PR-5
coordinator when :attr:`ServeConfig.workers` is set — so a served plan
is byte-identical to what ``repro grid`` would have stored for the
same cell.  Warm stores are held by a
:class:`~repro.serve.stores.StoreRegistry` (one pair per tenant) and
are safe under concurrent handler threads because the stores themselves
lock internally (DESIGN.md §5.13).

Auth: with :attr:`ServeConfig.token` set, every request must carry
``Authorization: Bearer <token>`` or is rejected with 401 before any
store or job state is touched; the same secret is forwarded to the
job fleet's coordinator/workers.  ``GET /healthz`` is the one
unauthenticated path — load balancers and process supervisors probe it
without credentials, and it leaks nothing but liveness/readiness.

Durability (DESIGN.md §5.14): with :attr:`ServeConfig.journal` on
(default), every job state transition is journaled to
``<root>/jobs.journal.jsonl`` and :meth:`PlanServer.start` replays
jobs that were queued/running when the previous incarnation died —
under their original ids, so clients polling across the restart keep
their handles.  :meth:`PlanServer.drain` is the SIGTERM path: refuse
new plans with 503 + ``Retry-After``, wait for active jobs up to
``drain_timeout``, journal every final state, flush stores, stop.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

from ..bench.runner import CellResult, effective_budget
from ..dist.config import DistConfig
from ..errors import FaultSpecError
from ..faults import injected_faults, parse_faults
from ..machine.platforms import get_platform
from ..obs.registry import current_registry, scoped_registry
from ..util.httpd import ServiceHandler, ServiceHTTPServer
from .config import ServeConfig
from .jobs import DONE, FAILED, JobManager, JobsDraining, PlanJob
from .journal import INTERRUPTED, JobJournal
from .stores import DEFAULT_TENANT, GridStores, StoreRegistry

#: variants a plan can ask for; ``best`` picks the fastest tuned one
VARIANT_CHOICES = ("NEW", "TH", "FFTW", "best")

#: objective spellings a request may use and how they are reported
OBJECTIVE_CHOICES = ("fft_time", "speedup")


class BadRequest(ValueError):
    """A malformed plan request (mapped to HTTP 400)."""


def _chaos_maybe_kill(label: str) -> None:
    """Test/bench hook: SIGKILL the serve process once, mid-job.

    ``$REPRO_SERVE_CHAOS="kill-once:<substr>@<dir>"`` makes the first
    tuning job whose label contains ``<substr>`` kill the whole server
    process — after the job's stores are flushed but *before* its
    terminal state reaches the journal, the worst-possible crash point
    for the recovery story (mirrors ``$REPRO_EXEC_CHAOS`` in
    :mod:`repro.exec.pool`).  The "once" latch is an ``O_EXCL``-created
    sentinel file in ``<dir>``, so the restarted incarnation's replay
    of the same job runs to completion.
    """
    spec = os.environ.get("REPRO_SERVE_CHAOS", "")
    if not spec.startswith("kill-once:"):
        return
    substr, _, where = spec[len("kill-once:"):].partition("@")
    if substr and substr not in label:
        return
    sentinel = os.path.join(where or ".", "serve-chaos-killed")
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


class _AmbientGate:
    """Readers/writer gate around the process-global fault stack.

    A fault-injected tuning job must install its spec ambiently
    (:mod:`repro.faults` is process-global by design — pool workers
    inherit it), so while one runs, no other job may compute cell keys.
    Fault-free jobs are readers (any number at once), faulted jobs are
    writers (exclusive).  With the default single job thread this gate
    never blocks.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False

    @contextmanager
    def reading(self):
        with self._cond:
            while self._writer:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @contextmanager
    def writing(self):
        with self._cond:
            while self._writer or self._readers:
                self._cond.wait()
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


def normalize_request(body: dict, config: ServeConfig) -> dict:
    """Validate and canonicalize one ``POST /plan`` body.

    Returns the normalized request dict (canonical platform name,
    effective budget, canonical fault key, ...) or raises
    :class:`BadRequest` with a client-facing message.
    """
    if not isinstance(body, dict):
        raise BadRequest("plan request must be a JSON object")
    try:
        platform = get_platform(str(body["platform"])).name
    except KeyError as exc:
        raise BadRequest(str(exc.args[0] if exc.args else exc)) from exc
    try:
        p = int(body["p"])
        n = int(body["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise BadRequest(f"need integer 'p' and 'n' fields: {exc}") from exc
    if p <= 0 or n <= 0:
        raise BadRequest(f"p and n must be positive (got p={p}, n={n})")
    variant = str(body.get("variant", "NEW"))
    if variant not in VARIANT_CHOICES:
        raise BadRequest(
            f"unknown variant {variant!r}; choose from {VARIANT_CHOICES}"
        )
    objective = str(body.get("objective", "fft_time"))
    if objective not in OBJECTIVE_CHOICES:
        raise BadRequest(
            f"unknown objective {objective!r}; choose from "
            f"{OBJECTIVE_CHOICES}"
        )
    try:
        budget = body.get("budget")
        budget = effective_budget(
            p, int(budget) if budget is not None else config.default_budget
        )
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"bad 'budget': {exc}") from exc
    faults_text = str(body.get("faults", "") or "")
    faults_key = ""
    if faults_text:
        try:
            faults_key = parse_faults(faults_text).key()
        except FaultSpecError as exc:
            raise BadRequest(f"bad 'faults': {exc}") from exc
    tenant = str(body.get("tenant", DEFAULT_TENANT))
    return {
        "tenant": tenant,
        "platform": platform,
        "p": p,
        "n": n,
        "variant": variant,
        "objective": objective,
        "budget": budget,
        "faults": faults_key,
    }


def plan_key(req: dict) -> tuple:
    """The single-flight/store identity of a request.

    The variant and objective are *not* part of it: one tuning job
    produces the whole cell (all variants tuned), so requests differing
    only in variant share the job and the stored cell.
    """
    return (req["tenant"], req["platform"], req["p"], req["n"],
            req["budget"], req["faults"])


class PlanServer:
    """HTTP front end + job runner for one store root (see module doc)."""

    def __init__(self, config: ServeConfig = ServeConfig()) -> None:
        self.config = config
        self.stores = StoreRegistry(config.root)
        self.journal = (
            JobJournal(Path(config.root) / "jobs.journal.jsonl")
            if config.journal else None
        )
        self.jobs = JobManager(
            self._run_job,
            threads=config.job_threads,
            clock=config.clock,
            journal=self.journal,
            job_timeout=config.job_timeout,
            on_timeout=self._job_timed_out,
        )
        self._gate = _AmbientGate()
        # captured at construction, like the coordinator's: handler and
        # job threads have their own (empty) thread-local stacks
        self.registry = current_registry()
        self._t0 = config.clock()
        self._draining = False
        #: jobs replayed from the journal by the last :meth:`start`
        self.recovered_jobs = 0
        self._server: ServiceHTTPServer | None = None
        self._thread: threading.Thread | None = None
        for name, help_ in (
            ("serve_plan_hits_total",
             "Plan requests answered from a warm store."),
            ("serve_plan_misses_total",
             "Plan requests that needed a tuning job."),
            ("serve_jobs_enqueued_total",
             "Background tuning jobs created (single-flight)."),
            ("serve_jobs_completed_total",
             "Background tuning jobs finished successfully."),
            ("serve_jobs_failed_total",
             "Background tuning jobs that raised."),
            ("serve_jobs_recovered_total",
             "Interrupted jobs re-enqueued from the journal on startup."),
            ("serve_job_timeouts_total",
             "Jobs failed by the stuck-job watchdog."),
            ("serve_drains_total",
             "Graceful drains initiated (SIGTERM/SIGINT)."),
            ("serve_auth_rejects_total",
             "Requests rejected for a missing or wrong bearer token."),
            ("serve_bad_requests_total",
             "Malformed plan requests rejected with 400."),
        ):
            self.registry.inc(name, 0, help=help_)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> str:
        """Recover journaled jobs, then bind and serve; returns the URL."""
        self.recovered_jobs = self.recover()
        handler = _make_handler(self)
        self._server = ServiceHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        if self.config.announce is not None:
            self.config.announce(self.url)
        return self.url

    def recover(self) -> int:
        """Replay the journal: re-enqueue jobs the previous incarnation
        left queued/running (or interrupted), under their original ids.

        Replayed work is near-free by construction — the tuning path
        reads through the warm per-tenant stores, so every evaluation
        the dead incarnation managed to flush answers without a
        simulation, and a job killed after its final flush re-tunes
        with zero simulations at all.  Returns the number of jobs
        re-enqueued; malformed journal entries and vanished tenant
        directories degrade to warnings, never startup failures.
        """
        if self.journal is None:
            return 0
        entries = self.journal.load()
        self.jobs.reserve_seq(JobJournal.max_seq(entries))
        recovered = 0
        for entry in sorted(
            (e for e in entries.values() if e.replayable),
            key=lambda e: e.job_id,
        ):
            try:
                req = normalize_request(dict(entry.request), self.config)
            except BadRequest as exc:
                warnings.warn(
                    f"job journal: cannot replay {entry.job_id} "
                    f"(unusable request: {exc}); dropping it",
                    RuntimeWarning,
                )
                continue
            tenant_dir = Path(self.config.root) / req["tenant"]
            if not tenant_dir.exists():
                warnings.warn(
                    f"job journal: tenant directory {tenant_dir} is gone; "
                    f"{entry.job_id} will re-tune against a cold store",
                    RuntimeWarning,
                )
            # mark the prior incarnation interrupted (provenance), then
            # re-enqueue under the same id with the incarnation bumped
            self.journal.record(
                entry.job_id, INTERRUPTED, tenant=req["tenant"],
                error="interrupted by server restart",
                incarnation=entry.incarnation,
            )
            job = self.jobs.resubmit(
                plan_key(req), req["tenant"], req,
                job_id=entry.job_id, incarnation=entry.incarnation + 1,
            )
            if job is not None:
                recovered += 1
                self.registry.inc("serve_jobs_recovered_total")
        return recovered

    @property
    def url(self) -> str:
        if self._server is None:
            raise RuntimeError("plan server not started")
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self) -> dict:
        """Graceful shutdown (the SIGTERM/SIGINT path).

        Flips readiness (``/healthz`` answers 503, ``POST /plan``
        answers 503 + ``Retry-After``) while *keeping the HTTP server
        up* so clients can poll their jobs to completion, waits for
        active jobs up to ``drain_timeout``, journals every job's final
        state (``interrupted`` for any survivor, which the next
        incarnation replays), flushes the stores, then stops serving.
        Returns ``{"drained": bool, "interrupted": [job ids]}``.
        """
        self._draining = True
        self.registry.inc("serve_drains_total")
        leftover = self.jobs.drain(self.config.drain_timeout)
        self.stores.flush_all()
        self._stop_http()
        return {
            "drained": not leftover,
            "interrupted": [job.id for job in leftover],
        }

    def stop(self, wait_jobs: bool = True) -> None:
        """Stop serving, drain (or abandon) jobs, flush eval stores."""
        self._draining = True
        self._stop_http()
        self.jobs.shutdown(wait=wait_jobs)
        self.stores.flush_all()

    def _stop_http(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def retry_after_s(self) -> int:
        """Seconds clients should wait before retrying a drained 503."""
        if self.config.retry_after_s is not None:
            return max(int(self.config.retry_after_s), 1)
        return max(int(round(self.config.drain_timeout)), 1)

    def _job_timed_out(self, job: PlanJob) -> None:
        self.registry.inc("serve_job_timeouts_total")

    # -- request handling (called from handler threads) --------------------

    def authorized(self, header: str | None) -> bool:
        token = self.config.token
        if not token:
            return True
        if header == f"Bearer {token}":
            return True
        self.registry.inc("serve_auth_rejects_total")
        return False

    def handle_plan(self, body: dict) -> tuple[int, dict]:
        """``POST /plan``: warm hit -> 200, cold miss -> 202 + job.

        While draining (or when the job executor shut down under a
        racing request) answers 503 with a ``retry_after`` hint — the
        handler mirrors it into a real ``Retry-After`` header.
        """
        if self._draining:
            return 503, self._unavailable_payload()
        req = normalize_request(body, self.config)
        stores = self.stores.get(req["tenant"])
        key = (req["platform"], req["p"], req["n"], req["budget"],
               req["faults"])
        cell = stores.results.get(*key)
        job = None
        if cell is None:
            def landed() -> bool:
                nonlocal cell
                cell = stores.results.get(*key)
                return cell is not None

            try:
                job, created = self.jobs.submit(
                    plan_key(req), req["tenant"], req, landed=landed
                )
            except JobsDraining as exc:
                self.registry.inc("serve_plan_misses_total")
                return 503, self._unavailable_payload(str(exc))
        if job is None:
            self.registry.inc("serve_plan_hits_total")
            return 200, self._plan_payload(req, cell, stores,
                                           source="result-store")
        self.registry.inc("serve_plan_misses_total")
        if created:
            self.registry.inc("serve_jobs_enqueued_total")
        out = job.snapshot()
        out["poll"] = f"/plan/{job.id}"
        out["created"] = created
        return 202, out

    def _unavailable_payload(self, message: str = "") -> dict:
        return {
            "error": message or "server is draining; retry later",
            "retry_after": self.retry_after_s(),
        }

    def handle_healthz(self) -> tuple[int, dict]:
        """``GET /healthz``: liveness is answering at all; readiness
        flips to 503 during drain so load balancers stop routing plans
        here while in-flight jobs finish."""
        ready = not self._draining
        return (200 if ready else 503), {
            "live": True,
            "ready": ready,
            "draining": self._draining,
            "uptime_s": round(max(self.config.clock() - self._t0, 0.0), 3),
        }

    def handle_plan_poll(self, job_id: str) -> tuple[int, dict]:
        """``GET /plan/<id>``: job state; the plan itself once done."""
        job = self.jobs.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        snap = job.snapshot()
        if snap["state"] != DONE:
            return 200, snap
        req = job.request
        stores = self.stores.get(req["tenant"])
        cell = stores.results.get(
            req["platform"], req["p"], req["n"], req["budget"], req["faults"]
        )
        if cell is None:  # store vanished under a finished job
            snap["error"] = "job finished but its cell left the store"
            snap["state"] = FAILED
            return 500, snap
        out = self._plan_payload(req, cell, stores, source="job")
        out.update(snap)
        return 200, out

    def handle_status(self) -> dict:
        now = self.config.clock()
        counts = self.jobs.counts()
        return {
            "uptime_s": round(max(now - self._t0, 0.0), 3),
            "tenants": self.stores.tenants(),
            "jobs": counts,
            "stores": {
                tenant: {
                    "cells": len(self.stores.get(tenant).results),
                    "eval_records": len(self.stores.get(tenant).evals),
                    **self.stores.get(tenant).results.stats(),
                }
                for tenant in self.stores.tenants()
            },
        }

    def metrics_text(self) -> str:
        """``/metrics``: refresh the point-in-time gauges, then render
        the whole registry as Prometheus text exposition."""
        reg = self.registry
        counts = self.jobs.counts()
        for state, value in counts.items():
            reg.set("serve_jobs", value, help="Tuning jobs per state.",
                    state=state)
        reg.set("serve_tenants", len(self.stores.tenants()),
                help="Tenants with a store pair.")
        reg.set("serve_draining", 1.0 if self._draining else 0.0,
                help="1 while a graceful drain is in progress.")
        uptime = max(self.config.clock() - self._t0, 0.0)
        reg.set("serve_uptime_seconds", round(uptime, 6),
                help="Seconds since the plan server started.")
        return reg.render_prometheus()

    def _plan_payload(self, req: dict, cell: CellResult,
                      stores: GridStores, source: str) -> dict:
        """The 200 body for a served plan (warm hit or finished job)."""
        variant = req["variant"]
        if variant == "best":
            variant = min(cell.times, key=lambda v: cell.times[v])
        if req["objective"] == "speedup":
            objective = cell.speedup(variant)
        else:
            objective = cell.times[variant]
        cell_file = stores.results.path_for(
            req["platform"], req["p"], req["n"], req["budget"], req["faults"]
        )
        try:
            age_s = round(max(time.time() - cell_file.stat().st_mtime, 0.0), 3)
        except OSError:
            age_s = None
        return {
            "plan": {
                "tenant": req["tenant"],
                "platform": req["platform"],
                "p": req["p"],
                "n": req["n"],
                "budget": req["budget"],
                "faults": req["faults"],
                "variant": variant,
                "params": cell.params[variant].as_dict(),
                "objective": objective,
                "objective_kind": req["objective"],
                "fft_time": cell.times[variant],
                "times": dict(cell.times),
                "tuning_time": cell.tuning_times[variant],
                "evaluations": cell.evaluations[variant],
            },
            "provenance": {
                "source": source,
                "store_key": cell_file.name,
                "age_s": age_s,
                "eval_records": len(stores.evals),
                "simulations": 0 if source == "result-store" else None,
            },
        }

    # -- job side (runs on JobManager pool threads) -------------------------

    def _run_job(self, job: PlanJob) -> None:
        """Tune one cold cell and write it through the tenant's stores.

        Runs under the server's registry (job telemetry — including the
        internal coordinator's ``dist_*`` counters when a fleet is
        configured — lands on ``/metrics``) and under the ambient-fault
        gate (see :class:`_AmbientGate`).
        """
        from ..exec import evaluate_cells  # heavy import, job-side only

        req = job.request
        stores = self.stores.get(req["tenant"])
        dispatch, dist_cfg = "local", None
        if self.config.workers:
            dispatch = "dist"
            dist_cfg = DistConfig(
                workers=self.config.workers,
                worker_jobs=self.config.worker_jobs,
                lease_ttl=self.config.lease_ttl,
                token=self.config.token,
                poll_s=0.05,
            )

        def tune() -> None:
            cells = evaluate_cells(
                req["platform"], [(req["p"], req["n"])],
                max_evaluations=req["budget"],
                store=stores.results,
                eval_store=stores.evals,
                dispatch=dispatch,
                dist=dist_cfg,
            )
            # evaluate_cells leaves memo hits disk-lazy; a job is only
            # done when *this tenant's* store holds the cell (another
            # tenant may have primed the process memo with it)
            for cell in cells:
                if not stores.results.path_for(*cell.key()).exists():
                    stores.results.put(cell)

        with scoped_registry(self.registry):
            try:
                if req["faults"]:
                    with self._gate.writing(), \
                            injected_faults(parse_faults(req["faults"])):
                        tune()
                else:
                    with self._gate.reading():
                        tune()
            except Exception:
                self.registry.inc("serve_jobs_failed_total")
                raise
            self.registry.inc("serve_jobs_completed_total")
            stores.flush()
        # chaos hook *after* the flush and *before* the manager journals
        # DONE: the crash point where all the work is on disk but the
        # journal still says running — replay must then cost ~nothing
        _chaos_maybe_kill(
            f"{job.id} {req['platform']} p{req['p']} N{req['n']}"
        )


def _make_handler(server: PlanServer) -> type[ServiceHandler]:
    """A handler class closed over one plan server (coordinator idiom)."""
    from ..dist.protocol import decode

    class Handler(ServiceHandler):
        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            try:
                if self.path == "/healthz":
                    # deliberately unauthenticated: probes come from
                    # supervisors without credentials, and the body is
                    # liveness/readiness only
                    code, payload = server.handle_healthz()
                    self._reply(payload, code)
                elif not server.authorized(self.headers.get("Authorization")):
                    self._reply({"error": "unauthorized"}, 401)
                elif self.path == "/status":
                    self._reply(server.handle_status())
                elif self.path == "/metrics":
                    self._reply_text(server.metrics_text())
                elif self.path.startswith("/plan/"):
                    code, payload = server.handle_plan_poll(
                        self.path[len("/plan/"):]
                    )
                    self._reply(payload, code)
                else:
                    self._reply({"error": f"unknown path {self.path}"}, 404)
            except Exception as exc:
                self._reply({"error": str(exc)}, 500)

        def do_POST(self) -> None:  # noqa: N802 (http.server API)
            try:
                if not server.authorized(self.headers.get("Authorization")):
                    self._reply({"error": "unauthorized"}, 401)
                    return
                if self.path != "/plan":
                    self._reply({"error": f"unknown path {self.path}"}, 404)
                    return
                length = int(self.headers.get("Content-Length", 0))
                body = decode(self.rfile.read(length)) if length else {}
                code, payload = server.handle_plan(body)
                self._reply(payload, code)
            except (BadRequest, ValueError) as exc:
                server.registry.inc("serve_bad_requests_total")
                self._reply({"error": str(exc)}, 400)
            except Exception as exc:
                self._reply({"error": str(exc)}, 500)

    return Handler
