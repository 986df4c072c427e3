"""Per-layer spans for the traced benchmark run.

The program's own tracer records spans inside the simulator; this module
instead wraps the *entry point of each layer* from the outside, so the
traced run splits one operation's wall time by layer without changing
any program file:

========  ==========================================================
layer     entry points wrapped
========  ==========================================================
engine    ``Engine.run`` (discrete-event scheduler + rank coroutines)
fft       ``Plan1D.execute`` (1-D kernels on real payloads)
movers    ``ffty_pack_real`` / ``unpack_fftx_real`` as the pipeline
          calls them (pack/unpack of real payloads)
tune      ``autotune`` as the cell runner and the app planner call it
store     ``ResultStore.get/put``, ``EvalStore.save``,
          ``JobJournal.record`` (disk-backed state)
serve     ``PlanServer.handle_plan/handle_plan_poll/_run_job``
http      ``BaseHTTPRequestHandler.handle_one_request`` (server-side
          parse, dispatch and reply of one request)
========  ==========================================================

A layer's *self time* is its spans' duration minus the part covered by
nested spans on the same thread.  The benchmark's own operation is the
outermost span (layer ``client``) on the runner's thread, so its self
time is what no wrapped layer on that thread accounts for: app-side
numpy work and, for the serve workloads, the whole wait for the client
threads and the server's handler and job threads, whose own spans
(``http``, ``serve``, ``store``, ``tune``, ``engine``) overlap that wait.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("engine", "fft", "movers", "tune", "store", "serve", "http", "client")


class LayerClock:
    """Thread-safe self-time and call-count accumulator per layer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        with self._lock:
            self.self_s.clear()
            self.calls.clear()

    def _stack(self) -> list[float]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def span(self, layer: str):
        stack = self._stack()
        stack.append(0.0)  # time covered by nested spans
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            nested = stack.pop()
            if stack:
                stack[-1] += dur
            with self._lock:
                self.self_s[layer] += dur - nested
                self.calls[layer] += 1

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer):
                return fn(*args, **kwargs)

        return traced


def _entry_points():
    """``(layer, owner, attribute)`` for every wrapped call site."""
    from http.server import BaseHTTPRequestHandler

    from repro import tuning
    from repro.bench import runner
    from repro.core import plan as pipeline
    from repro.exec.store import ResultStore
    from repro.fft.plan import Plan1D
    from repro.serve.journal import JobJournal
    from repro.serve.server import PlanServer
    from repro.simmpi.engine import Engine
    from repro.tuning.evalstore import EvalStore

    return [
        ("engine", Engine, "run"),
        ("fft", Plan1D, "execute"),
        ("movers", pipeline, "ffty_pack_real"),
        ("movers", pipeline, "unpack_fftx_real"),
        ("tune", runner, "autotune"),
        ("tune", tuning, "autotune"),
        ("store", ResultStore, "get"),
        ("store", ResultStore, "put"),
        ("store", EvalStore, "save"),
        ("store", JobJournal, "record"),
        ("serve", PlanServer, "handle_plan"),
        ("serve", PlanServer, "handle_plan_poll"),
        ("serve", PlanServer, "_run_job"),
        ("http", BaseHTTPRequestHandler, "handle_one_request"),
    ]


def install(clock: LayerClock):
    """Wrap every layer entry point; returns a function that undoes it.

    Install before any plan server is built: the server binds its job
    runner at construction.
    """
    saved = []
    for layer, owner, attr in _entry_points():
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, clock.wrap(layer, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall
