"""Shared cell evaluation for the benchmark suite.

``evaluate_cell`` tunes NEW and TH and runs FFTW for one (platform, p, N)
setting, exactly the way the paper built each Table 2 row; results are
memoized per process (and optionally on disk) because Tables 2/3/4 and
Figures 7/9 all consume the same cells.

The memo key includes the *effective tuning budget*: the same cell
evaluated with a different ``max_evaluations`` is a different
experiment and must not alias a cached one.  For multi-core machines,
:mod:`repro.exec` shards grids of cells over worker processes and feeds
this same memo through :func:`prime_cache`.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from ..core.api import RunResult, run_case
from ..core.params import ProblemShape, TuningParams
from ..faults import current_faults
from ..machine.platforms import Platform, get_platform
from ..tuning.evalstore import EvalStore
from ..tuning.tuner import TuningResult, autotune
from ..util.persist import CorruptStoreWarning, parse_jsonl, write_atomic
from .workloads import tuning_budget


@dataclass
class CellResult:
    """One (platform, p, N) row of Table 2 with its tuning byproducts."""

    platform: str
    p: int
    n: int
    times: dict[str, float]           # variant -> tuned 3-D FFT seconds
    tuning_times: dict[str, float]    # variant -> Table 4 seconds
    params: dict[str, TuningParams]   # variant -> winning configuration
    evaluations: dict[str, int]       # variant -> tuning evaluations
    budget: int = 0                   # tuning budget the cell was built with
    #: variant -> overlap summary of the tuned full run
    #: (:func:`repro.obs.run_metrics`: overlap_efficiency_pct,
    #: exposed_comm_s, scheduler counters, ...)
    metrics: dict[str, dict] = field(default_factory=dict)
    #: canonical fault-spec key the cell was evaluated under ("" =
    #: fault-free); part of the memo/store key, so faulty and fault-free
    #: results never alias
    faults: str = ""

    def speedup(self, variant: str) -> float:
        """Speedup of ``variant`` over the FFTW baseline (Figure 7)."""
        return self.times["FFTW"] / self.times[variant]

    def key(self) -> tuple[str, int, int, int, str]:
        """This cell's full memo/store key."""
        return (self.platform, self.p, self.n, self.budget, self.faults)


_CACHE: dict[tuple[str, int, int, int, str], CellResult] = {}


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
    """Memo/store key for one cell:
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
    """Tune and time FFTW/NEW/TH for one cell (memoized).

    Cache layering, outermost first: the in-process memo answers whole
    cells; ``eval_store`` (when given) answers the *individual tuning
    evaluations* inside a cell that the shared pool has already timed —
    a cell missing from the memo can still tune for free point by point.
    """
    plat = get_platform(platform) if isinstance(platform, str) else platform
    budget = effective_budget(p, max_evaluations)
    fault_key = active_fault_key()
    key = (plat.name, p, n, budget, fault_key)
    if key in _CACHE:
        return _CACHE[key]
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
    _CACHE[key] = cell
    return cell


def prime_cache(cells: list[CellResult]) -> None:
    """Insert externally computed cells (parallel workers) into the memo."""
    for cell in cells:
        _CACHE[cell.key()] = cell


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


# ------------------------------------------------------------------------
# serialization (shared by the disk cache and the exec-layer store)
# ------------------------------------------------------------------------


def cell_to_dict(cell: CellResult) -> dict:
    """JSON-ready representation of one cell."""
    return {
        "platform": cell.platform,
        "p": cell.p,
        "n": cell.n,
        "budget": cell.budget,
        "faults": cell.faults,
        "times": cell.times,
        "tuning_times": cell.tuning_times,
        "evaluations": cell.evaluations,
        "params": {k: v.as_dict() for k, v in cell.params.items()},
        "metrics": cell.metrics,
    }


def cell_from_dict(item: dict) -> CellResult:
    """Inverse of :func:`cell_to_dict`."""
    return CellResult(
        platform=item["platform"],
        p=item["p"],
        n=item["n"],
        times=item["times"],
        tuning_times=item["tuning_times"],
        evaluations=item["evaluations"],
        params={k: TuningParams(**v) for k, v in item["params"].items()},
        budget=item["budget"],
        # pre-observability stores have no metrics section; an empty
        # dict keeps those cells loadable (summaries just omit them)
        metrics=item.get("metrics", {}),
        # pre-fault-injection stores were all fault-free
        faults=item.get("faults", ""),
    )


# ------------------------------------------------------------------------
# optional on-disk cache so repeated benchmark invocations skip tuning
# ------------------------------------------------------------------------


def save_cache(path: str | Path) -> None:
    """Persist all memoized cells, one JSON cell per line (atomically:
    an interrupted or concurrent run can never leave a truncated file
    for load_cache)."""
    write_atomic(path, "".join(
        json.dumps(cell_to_dict(cell)) + "\n" for cell in _CACHE.values()
    ))


def load_cache(path: str | Path) -> int:
    """Load previously saved cells; returns the number restored.

    A missing file restores nothing.  Lines that do not parse or do not
    hold a current-schema cell (a foreign or truncated file, or an entry
    without ``"budget"``, whose key would be ambiguous) are skipped with
    a :class:`~repro.util.persist.CorruptStoreWarning`, like every other
    store's unreadable entries: the benchmark just recomputes those
    cells.
    """
    file = Path(path)
    try:
        text = file.read_text(encoding="utf-8")
    except FileNotFoundError:
        return 0
    cells, skipped = parse_jsonl(text, cell_from_dict)
    if skipped:
        warnings.warn(
            f"skipping {skipped} unreadable line(s) of cell cache {file}",
            CorruptStoreWarning,
            stacklevel=2,
        )
    for cell in cells:
        _CACHE[cell.key()] = cell
    return len(cells)


def clear_cache() -> None:
    """Drop all memoized cells (test isolation)."""
    _CACHE.clear()
