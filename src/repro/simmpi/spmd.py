"""High-level entry point: run an SPMD function on a simulated cluster.

:func:`run_spmd` hides engine setup and returns a :class:`SimResult`
bundling per-rank return values, the virtual makespan, and the per-rank
step-time breakdowns the benchmarks aggregate (Figure 8 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..machine.platforms import Platform
from .engine import Engine, RankTrace, SchedStats


@dataclass
class SimResult:
    """Outcome of one simulated SPMD run."""

    results: list[Any]
    elapsed: float
    traces: list[RankTrace]
    nprocs: int
    platform: Platform
    stats: SchedStats | None = None
    #: canonical fault-spec key the run executed under ("" = fault-free)
    faults: str = ""

    def breakdown(self, labels: list[str] | None = None) -> dict[str, float]:
        """Average per-rank virtual seconds by step label.

        Averaging across ranks matches how the paper's per-step stacked
        bars are built (symmetric SPMD ranks do near-identical work).
        """
        totals: dict[str, float] = {}
        for tr in self.traces:
            for label, secs in tr.by_label.items():
                totals[label] = totals.get(label, 0.0) + secs
        avg = {k: v / self.nprocs for k, v in totals.items()}
        if labels is None:
            return avg
        return {k: avg.get(k, 0.0) for k in labels}

    def max_by_label(self, label: str) -> float:
        """Largest single-rank total for one label (hot-spot check)."""
        return max(tr.by_label.get(label, 0.0) for tr in self.traces)


def run_spmd(
    nprocs: int,
    fn: Callable[..., Any],
    platform: Platform,
    *args: Any,
    record_events: bool = False,
    symmetric: bool = False,
    **kwargs: Any,
) -> SimResult:
    """Run ``fn(ctx, *args, **kwargs)`` on ``nprocs`` simulated ranks.

    ``fn`` is a generator function: each rank runs as a coroutine whose
    blocking operations are ``yield from`` of the ``co_*`` comm
    spellings.  ``ctx`` is a :class:`~repro.simmpi.comm.SimContext`;
    ``ctx.comm`` is the world communicator.  The function must be
    SPMD-correct: every rank must participate in every collective it
    reaches.

    The run's scheduler counters go to the current metrics registry.
    When a :mod:`repro.obs` tracer with ``rank_spans`` is installed,
    event recording is forced on and the per-rank timelines are exported
    as virtual-time spans.  None of this can change virtual times:
    tracing only reads clocks (``tests/obs/test_zero_overhead.py``).

    ``symmetric`` says every rank would compute rank 0's clocks bit for
    bit (the caller knows its program; :func:`repro.core.api.run_case`
    decides it), so the engine steps rank 0 alone and the result holds
    p references to its return value and trace.
    """
    from ..obs.tracer import current_tracer  # cycle-free: obs never imports spmd

    tracer = current_tracer()
    want_rank_spans = tracer is not None and tracer.rank_spans
    engine = Engine(
        nprocs, platform,
        record_events=record_events or want_rank_spans,
        tracer=tracer,
        symmetric=symmetric,
    )
    results = engine.run(fn, *args, **kwargs)
    sim = SimResult(
        results=results,
        elapsed=engine.final_time,
        traces=engine.traces(),
        nprocs=nprocs,
        platform=platform,
        stats=engine.stats,
        faults=engine.faults.spec.key() if engine.faults is not None else "",
    )
    if want_rank_spans:
        from ..obs.export import emit_rank_spans

        emit_rank_spans(tracer, sim.traces)
    return sim
