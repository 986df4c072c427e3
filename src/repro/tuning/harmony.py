"""Active-Harmony-style auto-tuning framework (Sections 4.3-4.4).

The paper's architecture (Figure 6) splits tuning into a *server* that
searches the parameter space and a *client* that runs the tuning target
and reports performance.  This module reproduces that split plus the
paper's four client-side techniques:

1. **Infeasible-point penalty** — a configuration violating a dependent
   constraint is reported as ``inf`` *without executing* the target.
2. **History reuse** — the discrete rounding of NM means the server can
   re-suggest an already-tested grid point; the client answers from its
   evaluation cache instead of re-running.
3. **Fixed-step skipping** — the objective excludes FFTz/Transpose
   (handled by the caller's objective function; see
   :func:`repro.tuning.tuner.autotune`).
4. **Search-space reduction** — lives in
   :class:`~repro.tuning.space.SearchSpace`.

Accounting mirrors Table 4: the session's ``tuning_time`` is the summed
*simulated* duration of the evaluations actually executed (cache hits
and penalized points are free) plus a per-evaluation harness overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.params import ProblemShape, TuningParams
from ..errors import InfeasibleConfigError, TuningError
from ..obs import registry as metrics
from ..obs.tracer import WALL, current_tracer
from .evalstore import ScopedEvalStore
from .neldermead import NelderMead
from .space import SearchSpace

#: modeled client/server round-trip + setup per evaluation (seconds);
#: small next to any real FFT execution, matching the paper's claim that
#: tuning time is dominated by running the target.
HARNESS_OVERHEAD = 0.05


@dataclass
class Evaluation:
    """One tested configuration."""

    index: tuple[int, ...]
    params: TuningParams | None
    objective: float
    executed: bool  # False for cache hits and infeasible penalties
    cost: float     # simulated seconds spent running the target


@dataclass
class TuningSession:
    """Joint record of a server/client tuning run."""

    space: SearchSpace
    history: list[Evaluation] = field(default_factory=list)
    cache: dict[tuple[int, ...], float] = field(default_factory=dict)
    tuning_time: float = 0.0

    @property
    def evaluations(self) -> int:
        """Total suggestions processed (including cache hits)."""
        return len(self.history)

    @property
    def executed_evaluations(self) -> int:
        """Suggestions that actually ran the tuning target."""
        return sum(1 for e in self.history if e.executed)

    def best(self) -> Evaluation:
        """Best feasible evaluation seen so far.

        Objective ties are broken toward records that carry their
        ``params`` (executed runs and store hits): a session-cache
        replay records ``params=None``, and returning such a record
        would hand the caller a winner it cannot re-run.
        """
        finite = [e for e in self.history if math.isfinite(e.objective)]
        if not finite:
            raise TuningError("no feasible configuration was found")
        return min(finite, key=lambda e: (e.objective, e.params is None))

    def evals_to_reach(self, objective: float) -> int | None:
        """How many suggestions it took to first reach ``objective`` or
        better (the paper's "found the first percentile configuration
        after testing 35 configurations" metric)."""
        for i, e in enumerate(self.history, start=1):
            if e.objective <= objective:
                return i
        return None


class HarmonyServer:
    """Search-strategy side: suggests configurations, absorbs reports."""

    def __init__(self, strategy: NelderMead, space: SearchSpace) -> None:
        self.strategy = strategy
        self.space = space

    @property
    def converged(self) -> bool:
        """Whether the search strategy has converged."""
        return self.strategy.converged

    def suggest(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """Next continuous point and its rounded grid index."""
        x = self.strategy.ask()
        return x, self.space.round_point(x)

    def report(self, x: np.ndarray, objective: float) -> None:
        """Feed an objective value back to the strategy."""
        self.strategy.tell(x, objective)


class HarmonyClient:
    """Target side: materializes, validates, caches, and runs configs.

    ``measure`` maps a feasible :class:`TuningParams` to ``(objective,
    cost_seconds)`` — for the FFT target both are the simulated execution
    time of the parameter-dependent steps.

    ``evals`` is an optional :class:`~repro.tuning.evalstore.ScopedEvalStore`
    — the cross-session/cross-strategy generalization of technique 2.  A
    configuration any strategy has already timed under the same setting
    is answered from the store without running the target (free, like a
    cache hit, counted as ``tune_store_hits_total``); every executed measurement
    is written through so other strategies and future sessions reuse it.
    """

    def __init__(
        self,
        space: SearchSpace,
        shape: ProblemShape,
        base: TuningParams,
        measure: Callable[[TuningParams], tuple[float, float]],
        session: TuningSession,
        evals: ScopedEvalStore | None = None,
    ) -> None:
        self.space = space
        self.shape = shape
        self.base = base
        self.measure = measure
        self.session = session
        self.evals = evals

    def evaluate(self, index: tuple[int, ...]) -> float:
        """Objective for a grid point, applying the paper's techniques."""
        s = self.session
        tr = current_tracer()
        t0 = tr.wall() if tr is not None else 0.0
        if index in s.cache:  # technique 2: reuse history
            value = s.cache[index]
            s.history.append(Evaluation(index, None, value, False, 0.0))
            self._trace_eval(tr, t0, index, None, value, cache_hit=True)
            return value
        try:
            params = self.space.params_at(index, self.base)
            params.check_feasible(self.shape)
        except (IndexError, InfeasibleConfigError):
            # technique 1: penalize without running the target
            s.cache[index] = math.inf
            s.history.append(Evaluation(index, None, math.inf, False, 0.0))
            self._trace_eval(tr, t0, index, None, math.inf, cache_hit=False)
            return math.inf
        if self.evals is not None:
            rec = self.evals.get(params)
            if rec is not None:  # shared history: another strategy's work
                s.cache[index] = rec.objective
                s.history.append(
                    Evaluation(index, params, rec.objective, False, 0.0)
                )
                self._trace_eval(tr, t0, index, params, rec.objective,
                                 cache_hit=False, store_hit=True)
                return rec.objective
        value, cost = self.measure(params)
        s.cache[index] = value
        s.tuning_time += cost + HARNESS_OVERHEAD
        s.history.append(Evaluation(index, params, value, True, cost))
        if self.evals is not None:
            self.evals.put(params, value, cost)
        self._trace_eval(tr, t0, index, params, value, cache_hit=False,
                         executed=True, cost=cost)
        return value

    def _trace_eval(
        self, tr, t0, index, params, value,
        cache_hit: bool, executed: bool = False, cost: float = 0.0,
        store_hit: bool = False,
    ) -> None:
        """Count one tuning-loop evaluation into the metrics registry
        (its store hit, if any, the eval store counts itself) and, when
        tracing, record it as one wall-clock span."""
        metrics.count("tune_evals_total", help="Tuning-loop evaluations.")
        if cache_hit:
            metrics.count("tune_cache_hits_total",
                          help="Evaluations answered from session history.")
        elif not store_hit and not math.isfinite(value):
            metrics.count("tune_infeasible_total",
                          help="Evaluations rejected as infeasible.")
        if tr is None:
            return
        attrs = {
            "index": list(index),
            "cache_hit": cache_hit,
            "store_hit": store_hit,
            "feasible": math.isfinite(value),
            "executed": executed,
            "objective": value if math.isfinite(value) else None,
            "sim_cost_s": cost,
        }
        if params is not None:
            attrs["params"] = params.as_dict()
        tr.add_span("tuning", "tune.eval", t0, tr.wall(), WALL, attrs)


def run_tuning_loop(
    server: HarmonyServer,
    client: HarmonyClient,
    max_evaluations: int = 400,
) -> TuningSession:
    """Drive suggest/evaluate/report until NM converges (Figure 6 loop)."""
    session = client.session
    while not server.converged and session.evaluations < max_evaluations:
        x, index = server.suggest()
        server.report(x, client.evaluate(index))
    return session
