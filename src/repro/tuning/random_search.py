"""Random search over the parameter space.

Two uses from the paper:

* Figure 5 — the cumulative distribution of execution time over 200
  random configurations (p=16, 256^3), which motivates auto-tuning;
* Section 5.3.1 — comparing how fast Nelder-Mead reaches the first
  percentile of that distribution versus random sampling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ..core.params import ProblemShape, TuningParams
from ..core.variants import VariantSpec, baseline_params, get_variant
from ..errors import TuningError
from ..machine.platforms import Platform
from .evalstore import EvalStore
from .space import SearchSpace

#: resampling bound for :func:`sample_params` — generous next to any
#: realistic feasible fraction, small next to an infinite loop.
MAX_SAMPLE_TRIES = 10_000


@dataclass
class RandomSearchResult:
    """Samples from a random-configuration sweep."""

    params: list[TuningParams]
    times: np.ndarray  # objective per sample (parameter-dependent steps)

    def cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted times and cumulative fractions (Figure 5's axes)."""
        xs = np.sort(self.times)
        ys = np.arange(1, len(xs) + 1) / len(xs)
        return xs, ys

    def percentile(self, q: float) -> float:
        """Time at the q-th percentile (q in [0, 100])."""
        return float(np.percentile(self.times, q))


def sample_params(
    space: SearchSpace,
    shape: ProblemShape,
    base: TuningParams,
    rng: random.Random,
    max_tries: int = MAX_SAMPLE_TRIES,
) -> TuningParams:
    """Draw one *feasible* configuration uniformly over the reduced grid
    (resampling constraint violations, so every draw is runnable — the
    paper measured execution time for all 200 of its random configs).

    Raises :class:`~repro.errors.TuningError` after ``max_tries``
    rejected draws: a reduced space with no feasible point (e.g. an
    infeasible ``base`` in an untuned dimension) must fail loudly, not
    loop forever.
    """
    for _ in range(max_tries):
        idx = tuple(rng.randrange(len(d)) for d in space.dims)
        params = space.params_at(idx, base)
        if params.is_feasible(shape):
            return params
    raise TuningError(
        f"no feasible configuration found in {max_tries} draws over "
        f"{[d.name for d in space.dims]} for shape "
        f"{shape.nx}x{shape.ny}x{shape.nz} p={shape.p} (base {base.as_dict()})"
    )


def _time_params(spec, platform, shape, params, include_fixed_steps):
    """One sample's objective (module-level: pool workers pickle it)."""
    from ..core.api import run_case  # local import to avoid cycles

    res, _ = run_case(
        spec, platform, shape, params, include_fixed_steps=include_fixed_steps
    )
    return res.elapsed


def random_search(
    variant: str | VariantSpec,
    platform: Platform,
    shape: ProblemShape,
    n_samples: int = 200,
    seed: int = 0,
    include_fixed_steps: bool = False,
    jobs: int | None = None,
    eval_store: EvalStore | None = None,
) -> RandomSearchResult:
    """Measure ``n_samples`` random configurations (Figure 5).

    ``include_fixed_steps=False`` matches the paper: "We exclude the FFTz
    and Transpose steps as those steps have the fixed performance
    regardless of parameter values."

    ``jobs`` shards the sample evaluations over worker processes (see
    :mod:`repro.exec`); all draws come from the single seeded RNG up
    front, so the sample set — and hence the result — is identical for
    every worker count.

    ``eval_store`` answers already-timed configurations from the shared
    evaluation pool (counted as ``tune_store_hits_total``) and records the
    new ones, so a CDF re-run — or a tuning session after it — is free where
    the pool is warm.  The returned samples are identical either way.
    """
    from ..exec.pool import parallel_map  # local import to avoid cycles

    spec = get_variant(variant) if isinstance(variant, str) else variant
    base = baseline_params(spec, shape)
    space = SearchSpace(shape, spec.tunable)
    rng = random.Random(seed)
    params_list = [
        sample_params(space, shape, base, rng) for _ in range(n_samples)
    ]
    scoped = (
        eval_store.scope(platform.name, spec.name, shape, include_fixed_steps)
        if eval_store is not None else None
    )
    known: dict[int, float] = {}
    todo: list[TuningParams] = []
    if scoped is not None:
        for i, p in enumerate(params_list):
            rec = scoped.get(p)
            if rec is not None:
                known[i] = rec.objective
            else:
                todo.append(p)
    else:
        todo = list(params_list)
    computed = parallel_map(
        _time_params,
        [(spec, platform, shape, p, include_fixed_steps) for p in todo],
        jobs,
    )
    if scoped is not None:
        for p, t in zip(todo, computed):
            scoped.put(p, t, t)
    fresh = iter(computed)
    elapsed = [
        known[i] if i in known else next(fresh)
        for i in range(len(params_list))
    ]
    return RandomSearchResult(params=params_list, times=np.asarray(elapsed))
