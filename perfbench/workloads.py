"""The benchmark's workloads: what one operation is, its set-up, its checks.

Every workload is a closed loop: the next operation starts when the
previous one has finished.  The ``cells`` and ``apps`` operations run on
the runner's thread; a serve operation is a round of :data:`CLIENTS`
concurrent clients, released together like the clients of
``tools/bench_serve.py`` and of the plan server's single-flight
acceptance test.  The seed picks the inputs (cell order, payload data,
tenant names) but never the amount of work, so runs with different
seeds measure the same thing.
"""

from __future__ import annotations

import dataclasses
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.apps import APPS, AppConfig, resolve_plan
from repro.apps.driver import _registry_total
from repro.bench import clear_cache, evaluate_cell
from repro.bench.runner import cell_to_dict
from repro.core.api import parallel_fft3d
from repro.core.params import ProblemShape
from repro.exec import evaluate_cells
from repro.fft import GLOBAL_WISDOM, clear_plan_cache
from repro.machine.platforms import get_platform
from repro.serve import PlanServer, ServeConfig, request_plan, wait_for_plan

#: tuning budget per variant: one op stays well under a second while
#: Nelder-Mead still takes real steps
BUDGET = 4
#: cells one ``cells`` op tunes: both machine models and two rank counts
GRID = (("UMD-Cluster", 4, 32), ("Hopper", 4, 32), ("UMD-Cluster", 8, 32))
#: one ``apps`` op is one run of every app, this many steps each
APP_SHAPE = ProblemShape(16, 16, 16, 4)
APP_PLATFORM = "UMD-Cluster"
APP_STEPS = 3
#: the cell ``tools/bench_serve.py`` serves
SERVE_CELL = ("UMD-Cluster", 4, 32)
#: concurrent serve clients.  ``tools/bench_serve.py`` uses 8, but the
#: plan server listens with socketserver's default backlog of 5: when 8
#: clients connect at once, a dropped connection waits out the kernel's
#: 1 s SYN retransmit, and that timer, not the server, decides whether a
#: round takes 50 ms or 1 s.  Four clients stay below the backlog.
CLIENTS = 4
#: warm requests each client sends per ``serve_read`` op
READS_PER_CLIENT = 8
#: poll interval while a plan write's job runs: a few polls per job,
#: so the poller neither starves the job thread nor idles long after it
POLL_S = 0.002
JOB_TIMEOUT_S = 60.0


def cold_caches() -> None:
    """Forget what a fresh process would not know: the cell memo, the
    FFT wisdom and the shared kernel cache."""
    clear_cache()
    GLOBAL_WISDOM.forget()
    clear_plan_cache()


class Workload:
    """One workload; the runner calls ``close`` and ``setup`` (several
    times), then ``begin``, ``op`` in a loop, ``verify`` and ``close``."""

    #: the reference its times are calibrated by (see
    #: :mod:`perfbench.calibrate`)
    calibration = "compute"
    #: run on one CPU.  The simulator keeps exactly one rank thread awake
    #: at a time, so a second CPU adds only cross-CPU wake-ups to its
    #: thousands of hand-offs per op, and those drift apart from the
    #: compute reference (cells: 6% spread over ten runs unpinned, 1.5%
    #: pinned).
    pin_cpu = True

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.rng = random.Random(seed)

    def setup(self) -> None:
        """Bring the workload from cold process caches to ready, having
        completed its first operation."""
        raise NotImplementedError

    def begin(self) -> None:
        """Called right before the measured window."""

    def op(self, i: int) -> bool:
        """One operation; returns whether its output was correct."""
        raise NotImplementedError

    def verify(self) -> list[str]:
        """Heavier checks after the window; returns the problems found."""
        return []

    def close(self) -> None:
        pass


class Cells(Workload):
    """One op tunes :data:`GRID` (FFTW, NEW and TH per cell) from an
    empty cell memo through the exec layer, as ``repro grid`` does."""

    def setup(self) -> None:
        cold_caches()
        self.order = list(GRID)
        self.rng.shuffle(self.order)
        self.reference = [cell_to_dict(c) for c in self._tune()]

    def _tune(self) -> list:
        clear_cache()
        return [
            evaluate_cells(plat, [(p, n)], jobs=1, max_evaluations=BUDGET)[0]
            for plat, p, n in self.order
        ]

    def op(self, i: int) -> bool:
        # Tuning is deterministic: every op must reproduce the set-up's
        # cells exactly, times and winning parameters alike.
        return [cell_to_dict(c) for c in self._tune()] == self.reference

    def verify(self) -> list[str]:
        """Run each tuned NEW plan on seeded payloads against numpy."""
        problems = []
        data = np.random.default_rng(self.seed)
        for plat, p, n in self.order:
            cell = evaluate_cell(plat, p, n, BUDGET)
            x = data.standard_normal((n, n, n)) + 1j * data.standard_normal((n, n, n))
            spectrum, _ = parallel_fft3d(
                x, p, get_platform(plat), cell.params["NEW"], "NEW"
            )
            ref = np.fft.fftn(x)
            err = float(np.abs(spectrum - ref).max() / np.abs(ref).max())
            if not err <= 1e-9:
                problems.append(f"{plat} p{p} N{n}: tuned NEW plan error {err:.2e}")
        return problems


class Apps(Workload):
    """One op is one ``AppDriver.run`` of every spectral app (Poisson,
    convolution, turbulence), as ``repro app --params`` runs it: initial
    state, :data:`APP_STEPS` steps with their registry accounting and
    spans, and the serial-oracle check.  The params are tuned locally at
    set-up, so plans and wisdom are reused from the second op on."""

    def setup(self) -> None:
        cold_caches()
        platform = get_platform(APP_PLATFORM)
        self.configs = []
        for name in sorted(APPS):
            cfg = AppConfig(shape=APP_SHAPE, platform=platform, steps=APP_STEPS,
                            warmup=0, seed=self.seed, budget=BUDGET)
            plan = resolve_plan(cfg)
            self.configs.append((name, dataclasses.replace(
                cfg, params=plan.params, variant=plan.variant)))
        if not self.op(0):
            raise RuntimeError("first app runs failed their oracle checks")

    def op(self, i: int) -> bool:
        return all(APPS[name](cfg).run().numerics_ok for name, cfg in self.configs)


class _Serve(Workload):
    """A plan server on a fresh root under ``tmp``, built on the
    caller's thread so its registry is the runner's, and a pool of
    :data:`CLIENTS` client threads."""

    calibration = "http"
    pin_cpu = False  # see perfbench.calibrate
    server: PlanServer | None = None
    clients: ThreadPoolExecutor | None = None
    setups = 0
    tenants = 0

    def _start(self) -> None:
        cold_caches()
        self.setups += 1
        self.server = PlanServer(ServeConfig(
            root=str(self.tmp / f"plans-{self.setups}"), default_budget=BUDGET,
        ))
        self.url = self.server.start()
        self.clients = ThreadPoolExecutor(CLIENTS, thread_name_prefix="client")

    def _tenant(self) -> str:
        """A tenant name never used before in this run."""
        self.tenants += 1
        return f"seed{self.seed}-{self.rng.randrange(16 ** 6):06x}-{self.tenants}"

    def _concurrent(self, client) -> list:
        """``client(k)`` on every client thread, released together."""
        barrier = threading.Barrier(CLIENTS, timeout=JOB_TIMEOUT_S)

        def released(k: int):
            barrier.wait()
            return client(k)

        return list(self.clients.map(released, range(CLIENTS)))

    def _served(self, body: dict) -> bool:
        plan = body.get("plan", {})
        return (plan.get("times") == self.reference["times"]
                and plan.get("params") == self.reference["params"]["NEW"])

    def close(self) -> None:
        if self.clients is not None:
            self.clients.shutdown()
            self.clients = None
        if self.server is not None:
            self.server.stop()
            self.server = None


class ServeWrite(_Serve):
    """One op is a new tenant's first plan, asked for by every client at
    once: single-flight collapses the misses onto one job, which finds
    the cell in the process memo (tuned by an earlier tenant), writes the
    tenant's result and eval stores and journals each state change
    (fsynced).  As in the cold phase of ``tools/bench_serve.py``, one
    poller then waits for the job."""

    def setup(self) -> None:
        self._start()
        self.reference = None
        if not self.op(0):  # the first write tunes the cell from cold
            raise RuntimeError("first plan write was not served consistently")

    def op(self, i: int) -> bool:
        tenant = self._tenant()
        replies = self._concurrent(
            lambda k: request_plan(self.url, *SERVE_CELL, tenant=tenant))
        # Normally every miss shares one job.  A client whose store lookup
        # missed just before the job's put, but who submits just after the
        # job freed its single-flight key, starts a second one (about one
        # op in 200); ``--trace 1`` reports jobs per op.
        jobs = {body["job"] for code, body in replies if code == 202}
        plans = [body for code, body in replies if code == 200]
        plans += [wait_for_plan(self.url, job, timeout=JOB_TIMEOUT_S, poll_s=POLL_S)
                  for job in sorted(jobs)]
        if self.reference is None:
            self.reference = cell_to_dict(evaluate_cell(*SERVE_CELL, BUDGET))
        return bool(jobs) and all(self._served(body) for body in plans)


class ServeRead(_Serve):
    """One op is :data:`READS_PER_CLIENT` warm ``POST /plan`` requests
    from every client at once, answered from the tenant's result store
    (``tools/bench_serve.py``'s concurrent warm phase)."""

    def setup(self) -> None:
        self._start()
        self.tenant = self._tenant()
        code, body = request_plan(self.url, *SERVE_CELL, tenant=self.tenant)
        wait_for_plan(self.url, body["job"], timeout=JOB_TIMEOUT_S, poll_s=POLL_S)
        # the server's job primed the in-process cell memo
        self.reference = cell_to_dict(evaluate_cell(*SERVE_CELL, BUDGET))
        if not self.op(0):
            raise RuntimeError("first warm reads were not served consistently")

    def begin(self) -> None:
        self.sims0 = _registry_total(self.server.registry, "sim_runs_total")

    def _read(self) -> list[tuple[int, dict]]:
        return [request_plan(self.url, *SERVE_CELL, tenant=self.tenant)
                for _ in range(READS_PER_CLIENT)]

    def op(self, i: int) -> bool:
        replies = self._concurrent(lambda k: self._read())
        return all(code == 200 and self._served(body)
                   for reads in replies for code, body in reads)

    def verify(self) -> list[str]:
        sims = _registry_total(self.server.registry, "sim_runs_total") - self.sims0
        return [f"warm reads ran {sims:g} simulations"] if sims else []


WORKLOADS: dict[str, type[Workload]] = {
    "cells": Cells,
    "apps": Apps,
    "serve_read": ServeRead,
    "serve_write": ServeWrite,
}
