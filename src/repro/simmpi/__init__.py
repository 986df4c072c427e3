"""Simulated MPI: a deterministic discrete-event cluster.

SPMD programs written against :class:`Communicator` run on virtual ranks
whose clocks advance through an analytic machine model; non-blocking
all-to-all follows the paper's *manual progression* semantics (MPI_Test
drives injection).  See DESIGN.md section 5 for the model.
"""

from .comm import Communicator, SimContext
from .engine import Engine, RankTrace, SchedStats
from .fabric import Fabric
from .request import AlltoallRequest
from .spmd import SimResult, run_spmd

__all__ = [
    "AlltoallRequest",
    "Communicator",
    "Engine",
    "Fabric",
    "RankTrace",
    "SchedStats",
    "SimContext",
    "SimResult",
    "run_spmd",
]
