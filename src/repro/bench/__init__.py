"""Benchmark harness: experiment grids, paper reference data, runners."""

from .runner import (
    CellResult,
    clear_cache,
    cross_platform_time,
    evaluate_cell,
    run_breakdown,
)
from .workloads import (
    BREAKDOWN_CELLS,
    LARGE_CELLS,
    PAPER_SPEEDUP_RANGES,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    SMALL_CELLS,
    VARIANT_ORDER,
    bench_scale,
    cells_for,
    tuning_budget,
)

__all__ = [
    "BREAKDOWN_CELLS",
    "CellResult",
    "LARGE_CELLS",
    "PAPER_SPEEDUP_RANGES",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "SMALL_CELLS",
    "VARIANT_ORDER",
    "bench_scale",
    "cells_for",
    "clear_cache",
    "cross_platform_time",
    "evaluate_cell",
    "run_breakdown",
    "tuning_budget",
]
