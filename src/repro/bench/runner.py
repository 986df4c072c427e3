"""Shared cell evaluation for the benchmark suite.

``evaluate_cell`` tunes NEW and TH and runs FFTW for one (platform, p, N)
setting, exactly the way the paper built each Table 2 row.  Tables 2/3/4
and Figures 7/9 all consume the same cells, so every evaluated cell is
kept in :data:`PROCESS_STORE`, a :class:`~repro.exec.store.ResultStore`
with no directory; :mod:`repro.exec` grids and the benchmark suite's
on-disk cache (``REPRO_BENCH_CACHE=1``) read and write that same store.

The store key includes the *effective tuning budget*: the same cell
evaluated with a different ``max_evaluations`` is a different
experiment and must not alias a stored one.
"""

from __future__ import annotations

from ..core.api import RunResult, run_case
from ..core.params import ProblemShape
from ..exec.store import CellResult, ResultStore
# callers import the cell codec from here too
from ..exec.store import cell_from_dict, cell_to_dict  # noqa: F401
from ..faults import current_faults
from ..machine.platforms import Platform, get_platform
from ..tuning.evalstore import EvalStore
from ..tuning.tuner import TuningResult, autotune
from .workloads import tuning_budget

#: every cell this process has evaluated or been handed (memory only)
PROCESS_STORE = ResultStore()


def effective_budget(p: int, max_evaluations: int | None = None) -> int:
    """The tuning budget a cell evaluation will actually use."""
    return max_evaluations if max_evaluations is not None else tuning_budget(p)


def active_fault_key() -> str:
    """Canonical key of the ambient fault spec ("" when fault-free)."""
    spec = current_faults()
    return spec.key() if spec is not None else ""


def cell_key(
    platform: str, p: int, n: int, max_evaluations: int | None = None
) -> tuple[str, int, int, int, str]:
    """Store key for one cell:
    (platform, p, n, effective budget, ambient fault key)."""
    return (
        platform, p, n, effective_budget(p, max_evaluations),
        active_fault_key(),
    )


def evaluate_cell(
    platform: Platform | str,
    p: int,
    n: int,
    max_evaluations: int | None = None,
    eval_store: EvalStore | None = None,
) -> CellResult:
    """Tune and time FFTW/NEW/TH for one cell (kept in
    :data:`PROCESS_STORE`).

    Cache layering, outermost first: the process store answers whole
    cells; ``eval_store`` (when given) answers the *individual tuning
    evaluations* inside a cell that the shared pool has already timed —
    a cell missing from the process store can still tune for free point
    by point.
    """
    plat = get_platform(platform) if isinstance(platform, str) else platform
    budget = effective_budget(p, max_evaluations)
    fault_key = active_fault_key()
    held = PROCESS_STORE.get(plat.name, p, n, budget, fault_key)
    if held is not None:
        return held
    shape = ProblemShape(n, n, n, p)
    times, tunings, params, evals, metrics = {}, {}, {}, {}, {}
    for variant in ("FFTW", "NEW", "TH"):
        result: TuningResult = autotune(
            variant, plat, shape, max_evaluations=budget,
            eval_store=eval_store,
        )
        times[variant] = result.fft_time
        tunings[variant] = result.tuning_time
        params[variant] = result.best_params
        evals[variant] = result.evaluations
        if result.full_run.sim is not None:
            from ..obs.metrics import run_metrics

            metrics[variant] = run_metrics(result.full_run.sim)
    cell = CellResult(
        platform=plat.name, p=p, n=n,
        times=times, tuning_times=tunings, params=params, evaluations=evals,
        budget=budget, metrics=metrics, faults=fault_key,
    )
    PROCESS_STORE.put(cell)
    return cell


def run_breakdown(
    platform: Platform | str,
    p: int,
    n: int,
    variants: tuple[str, ...] = ("NEW", "NEW-0", "TH", "TH-0"),
) -> dict[str, RunResult]:
    """Figure 8 data: per-step breakdowns; the overlapped variants run
    with their tuned configuration, the ``-0`` twins reuse it with
    overlap disabled ("with all the other parameters equal", §5.2.1)."""
    plat = get_platform(platform) if isinstance(platform, str) else platform
    cell = evaluate_cell(plat, p, n)
    shape = ProblemShape(n, n, n, p)
    out: dict[str, RunResult] = {}
    for variant in variants:
        tuned_source = "NEW" if variant.startswith("NEW") else "TH"
        params = cell.params.get(tuned_source)
        res, _ = run_case(variant, plat, shape, params)
        out[variant] = res
    return out


def cross_platform_time(
    run_on: Platform | str,
    tuned_on: Platform | str,
    p: int,
    n: int,
    variant: str = "NEW",
) -> float:
    """Figure 9's CROSS bar: run on one platform with the configuration
    tuned on the other."""
    plat = get_platform(run_on) if isinstance(run_on, str) else run_on
    foreign = evaluate_cell(tuned_on, p, n)
    shape = ProblemShape(n, n, n, p)
    res, _ = run_case(variant, plat, shape, foreign.params[variant])
    return res.elapsed


def clear_cache() -> None:
    """Empty the process store (test and benchmark isolation)."""
    PROCESS_STORE.clear()
