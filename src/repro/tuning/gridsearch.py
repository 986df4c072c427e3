"""Exhaustive / coordinate sweeps over the reduced space.

Not part of the paper's method (the whole point of Section 4 is that the
full space is too big), but essential tooling: the ablation benchmarks
sweep one parameter at a time to show each knob's effect, and tiny
problems can be searched exhaustively to bound how far Nelder-Mead lands
from the true grid optimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from ..core.params import ProblemShape, TuningParams
from ..core.variants import VariantSpec, baseline_params, get_variant
from ..machine.platforms import Platform
from .evalstore import EvalStore
from .space import SearchSpace


@dataclass
class SweepPoint:
    """One evaluated configuration in a sweep."""

    params: TuningParams
    value: int          # the swept parameter's value (for 1-D sweeps)
    objective: float


def _time_point(spec, platform, shape, params, include_fixed_steps):
    """One sweep point's objective (module-level: pool workers pickle it)."""
    from ..core.api import run_case

    res, _ = run_case(
        spec, platform, shape, params, include_fixed_steps=include_fixed_steps
    )
    return res.elapsed


def sweep_parameter(
    variant: str | VariantSpec,
    platform: Platform,
    shape: ProblemShape,
    name: str,
    base: TuningParams | None = None,
    include_fixed_steps: bool = True,
    jobs: int | None = None,
    progress=None,
    eval_store: EvalStore | None = None,
) -> list[SweepPoint]:
    """Vary one parameter over its candidate list, others fixed at
    ``base``; skips infeasible combinations.  ``jobs`` shards the point
    evaluations over worker processes (see :mod:`repro.exec`) with
    order-preserving merging; ``progress`` receives one completion event
    per evaluated point (``repro.exec.pool.ProgressFn``).

    ``eval_store`` skips points the shared evaluation pool has already
    timed (counted as ``tune_store_hits_total``) and records the rest."""
    from ..exec.pool import parallel_map

    spec = get_variant(variant) if isinstance(variant, str) else variant
    if base is None:
        base = baseline_params(spec, shape)
    space = SearchSpace(shape, (name,))
    points = []
    for value in space.dims[0].values:
        params = base.replace(**{name: value})
        if params.is_feasible(shape):
            points.append((value, params))
    scoped = (
        eval_store.scope(platform.name, spec.name, shape, include_fixed_steps)
        if eval_store is not None else None
    )
    known: dict[int, float] = {}
    todo = list(range(len(points)))
    if scoped is not None:
        todo = []
        for i, (_v, params) in enumerate(points):
            rec = scoped.get(params)
            if rec is not None:
                known[i] = rec.objective
            else:
                todo.append(i)
    computed = parallel_map(
        _time_point,
        [(spec, platform, shape, points[i][1], include_fixed_steps)
         for i in todo],
        jobs,
        labels=[f"{name}={points[i][0]}" for i in todo],
        progress=progress,
    )
    objectives: list[float] = [0.0] * len(points)
    for i, obj in zip(todo, computed):
        objectives[i] = obj
        if scoped is not None:
            scoped.put(points[i][1], obj, obj)
    for i, obj in known.items():
        objectives[i] = obj
    return [
        SweepPoint(params=params, value=value, objective=obj)
        for (value, params), obj in zip(points, objectives)
    ]


def exhaustive_search(
    variant: str | VariantSpec,
    platform: Platform,
    shape: ProblemShape,
    max_points: int = 20000,
    include_fixed_steps: bool = False,
    eval_store: EvalStore | None = None,
) -> tuple[TuningParams, float, int]:
    """Evaluate every feasible grid point (small spaces only).

    Returns ``(best_params, best_objective, n_evaluated)``; raises
    :class:`ValueError` if the grid exceeds ``max_points``.  Points
    already in ``eval_store`` are answered from the pool and do not
    count as evaluated; new measurements are written through, so an
    exhaustive pass fully warms the store for every other strategy.
    """
    from ..core.api import run_case

    spec = get_variant(variant) if isinstance(variant, str) else variant
    base = baseline_params(spec, shape)
    space = SearchSpace(shape, spec.tunable)
    if space.size() > max_points:
        raise ValueError(
            f"grid has {space.size()} points, over the {max_points} limit"
        )
    scoped = (
        eval_store.scope(platform.name, spec.name, shape, include_fixed_steps)
        if eval_store is not None else None
    )
    best_params, best_val, n = None, math.inf, 0
    for idx in itertools.product(*(range(len(d)) for d in space.dims)):
        params = space.params_at(idx, base)
        if not params.is_feasible(shape):
            continue
        if scoped is not None:
            rec = scoped.get(params)
            if rec is not None:
                if rec.objective < best_val:
                    best_params, best_val = params, rec.objective
                continue
        res, _ = run_case(
            spec, platform, shape, params, include_fixed_steps=include_fixed_steps
        )
        n += 1
        if scoped is not None:
            scoped.put(params, res.elapsed, res.elapsed)
        if res.elapsed < best_val:
            best_params, best_val = params, res.elapsed
    return best_params, best_val, n
