"""Zero-dependency structured tracer for simulation and driver code.

One :class:`Tracer` collects **spans**: named intervals on a *track*
(a Perfetto/Chrome "thread").  Simulated ranks get one virtual-time
track each; driver-side work (tuning evaluations, pool cells) gets
wall-time tracks.  Counts and samples (scheduler handoffs, store hits,
per-item seconds) live in the metrics registry
(:mod:`repro.obs.registry`) whether or not a tracer is installed; a
trace export carries the registry's snapshot in its metadata.

Clock rule (see DESIGN.md "Observability"): a span that happened
*inside* a simulated run carries **virtual seconds** (the engine's rank
clocks, ``clock="virtual"``); everything that happens in the driving
process — tuning loops, pool scheduling, exporters — carries **wall
seconds relative to the tracer's creation** (``clock="wall"``).  The
two never mix on one track, and the exporters keep them in separate
process groups.

Tracing is **off by default** and must stay zero-cost when off: the
instrumented layers fetch :func:`current_tracer` once per construct and
skip all attribute building behind an ``is not None`` guard, and no
instrumentation ever advances a virtual clock — enabling a tracer
cannot change simulated times (enforced by
``tests/obs/test_zero_overhead.py``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: clock domains a span can live in
WALL = "wall"
VIRTUAL = "virtual"


@dataclass
class Span:
    """One named interval on a track (``t0``/``t1`` in ``clock`` seconds)."""

    track: str
    name: str
    t0: float
    t1: float
    clock: str = VIRTUAL
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """In-memory span collector.

    ``rank_spans`` controls whether simulated runs emit their per-rank
    event timelines into the trace: on for single-run timeline views
    (``repro run --trace``), off for tuning sweeps and grids, where
    hundreds of inner simulations per evaluation would swamp the trace
    with rank tracks nobody asked for.

    ``max_spans`` bounds memory on runaway traces; spans past the cap
    are counted in :attr:`dropped`, which every export reports as
    ``spans_dropped``.
    """

    def __init__(
        self,
        rank_spans: bool = True,
        meta: dict | None = None,
        max_spans: int = 1_000_000,
    ) -> None:
        self.rank_spans = rank_spans
        self.meta: dict = dict(meta or {})
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.dropped = 0
        self._wall0 = time.perf_counter()

    # -- clocks --------------------------------------------------------------

    def wall(self) -> float:
        """Wall seconds since this tracer was created."""
        return time.perf_counter() - self._wall0

    # -- spans ---------------------------------------------------------------

    def add_span(
        self,
        track: str,
        name: str,
        t0: float,
        t1: float,
        clock: str = VIRTUAL,
        attrs: dict | None = None,
    ) -> None:
        """Record a finished interval with explicit timestamps."""
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(Span(track, name, t0, t1, clock, dict(attrs or {})))

    @contextmanager
    def span(self, name: str, track: str = "driver", **attrs):
        """Wall-clock span context; yields the attrs dict so the body can
        attach outcome attributes before the span closes."""
        t0 = self.wall()
        out: dict = dict(attrs)
        try:
            yield out
        finally:
            self.add_span(track, name, t0, self.wall(), WALL, out)


# ---------------------------------------------------------------------------
# active-tracer registry: a stack per thread, so nested `tracing()` blocks
# compose and a thread's tracer (a distributed worker's) never sees
# another thread's spans
# ---------------------------------------------------------------------------

_TLS = threading.local()


def _stack() -> list[Tracer]:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    return stack


def current_tracer() -> Tracer | None:
    """This thread's installed tracer, or ``None`` (tracing disabled —
    the default)."""
    stack = _stack()
    return stack[-1] if stack else None


def install(tracer: Tracer) -> Tracer:
    """Make ``tracer`` this thread's active tracer until :func:`uninstall`."""
    _stack().append(tracer)
    return tracer


def uninstall(tracer: Tracer | None = None) -> None:
    """Pop the active tracer (must be ``tracer`` when one is given)."""
    stack = _stack()
    if not stack:
        raise RuntimeError("no tracer installed")
    if tracer is not None and stack[-1] is not tracer:
        raise RuntimeError("uninstall out of order: not the active tracer")
    stack.pop()


@contextmanager
def tracing(tracer: Tracer | None = None):
    """Scoped tracing: install a tracer (a fresh one by default) for the
    duration of the block and yield it."""
    tr = tracer if tracer is not None else Tracer()
    install(tr)
    try:
        yield tr
    finally:
        uninstall(tr)
