"""Auto-tuning: Active-Harmony-style Nelder-Mead search with the paper's
penalty / history / skip / log-reduction / initial-simplex techniques."""

from .coordinate import CoordinateDescent
from .evalstore import EvalRecord, EvalStore, ScopedEvalStore, eval_key
from .gridsearch import exhaustive_search, sweep_parameter
from .harmony import (
    Evaluation,
    HarmonyClient,
    HarmonyServer,
    TuningSession,
    run_tuning_loop,
)
from .initial import initial_simplex
from .neldermead import NelderMead
from .random_search import RandomSearchResult, random_search, sample_params
from .space import Dimension, SearchSpace
from .tuner import TuningResult, autotune, fftw_tuning_time

__all__ = [
    "CoordinateDescent",
    "Dimension",
    "EvalRecord",
    "EvalStore",
    "Evaluation",
    "HarmonyClient",
    "HarmonyServer",
    "NelderMead",
    "ScopedEvalStore",
    "eval_key",
    "RandomSearchResult",
    "SearchSpace",
    "TuningResult",
    "TuningSession",
    "autotune",
    "exhaustive_search",
    "fftw_tuning_time",
    "initial_simplex",
    "random_search",
    "run_tuning_loop",
    "sample_params",
    "sweep_parameter",
]
