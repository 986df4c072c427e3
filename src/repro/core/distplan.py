"""Plan once, execute many: cached distributed 3-D FFT plans.

FFTW splits planning from execution, and so do the distributed FFT
libraries built on it: P3DFFT plans a decomposition once and executes it
many times, and mpi4py-fft's ``PFFT`` object holds its decomposition,
transfer plan and serial FFT plans across calls (Dalcin et al.).
:class:`DistributedFFT3D` is that object for both simulated
decompositions.  It holds, for one (platform, shape, variant, effective
parameters, process grid), one shared set of 1-D plans and, for the
engine run of a slab plan, every rank's
:class:`~repro.core.plan.SlabDataPath` (its decomposition and layouts).

**Grid plans.**  Given a ``pr x pc`` process ``grid``, the plan runs
the pencil decomposition (:class:`~repro.core.pencil.PencilFFT3D`, the
paper's §7 future work) on the same shared 1-D plans.  A grid plan is
c2c only and has pencil's one fixed schedule, so it takes no tuning
parameters; its ``p = pr*pc`` ranks may outnumber the planes of an axis
(:class:`~repro.core.pencil.GridShape`).  Only the engine run differs:
the replay below and its first-execute check are the same, since the
3-D DFT does not depend on the decomposition.

**Replay.**  The first execute runs the engine with payloads, as
:func:`~repro.core.api.run_case` does, and keeps the run's timeline
(elapsed, per-rank breakdowns, scheduler stats) without its payloads,
together with its Figure 8 breakdown.  Later executes run only the
numpy data path and return the kept timeline.  This is sound because
the timeline does not depend on the data: a real-payload run times
exactly like the virtual run with the same parameters
(``tests/core/test_payload_paths.py``), and injected faults are seeded
per engine run and part of the cache key.  A :mod:`repro.obs` tracer
with ``rank_spans`` needs a fresh timeline, so it always gets an engine
run.

**Whole-array data path.**  The replay takes the global array in and
gives the global spectrum out, with one kernel call per axis: FFTz (an
r2c transform for r2c plans) on the ``(x, y, z)`` input, FFTy on its
``(x, z, y)`` copy, then Pack, the exchange and Unpack as one
axis-permuting copy to ``(y, z, x)`` — a slab transpose is a reshape
plus an axis permutation (Hunt, Mullin et al.) — FFTx on that, and one
copy back to a fresh C-contiguous ``(x, y, z)`` spectrum; the
intermediates live in two per-thread work arrays that every replay
reuses, and the 1-D kernels write into them.  Every 1-D line of
an axis gets the same plan whatever the decomposition, the kernels are
bitwise batch-independent (``tests/fft/test_batch_independence.py``) and
the movers only copy, so this equals the per-rank engine run bit for
bit for every shape, uneven slabs and ``Nx != Ny`` included.  The first
execute proves it for each plan: it replays its own input and requires
the gathered engine spectrum and the replayed one to agree bit for bit
(:class:`~repro.errors.SimulationError` otherwise).

**The c2r inverse.**  An r2c plan's :meth:`DistributedFFT3D.backward`
is the c2r inverse, with its own engine run, kept timeline and
first-execute check.  Its replay is the whole-array path in reverse,
in the same work arrays: the backward-sign y and x kernels on the half
spectrum, one permute to z-last that folds in the ``1/(Nx*Ny)``
normalization, and the c2r on z (normalized by its matrix) into the
fresh real result — three kernel calls, no conjugation or scaling pass.

:func:`fft3d_plan` is the process-wide cache the functional
``parallel_fft3d``/``parallel_ifft3d``/``parallel_rfft3d``/
``parallel_irfft3d`` calls go through.  Its key adds the active fault
spec and the planner effort to the plan's own fields;
:func:`repro.fft.clear_plan_cache` empties it.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import replace

import numpy as np

from ..errors import ParameterError, SimulationError
from ..faults import current_faults
from ..fft.plan import Plan1D, default_planning_flag, plan_cache_epoch
from ..machine.platforms import Platform
from ..obs.registry import count
from ..obs.tracer import current_tracer
from ..simmpi.spmd import SimResult, run_spmd
from .decompose import gather_spectrum, scatter_slabs
from .params import ProblemShape, TuningParams
from .pencil import PencilFFT3D, check_grid
from .plan import BREAKDOWN_LABELS, ParallelFFT3D, SlabDataPath
from .realfft3d import (
    ParallelIRFFT3D,
    ParallelRFFT3D,
    half_params,
    inverse_plans,
    irfft_z,
)
from .variants import VariantSpec, baseline_params, get_variant

#: plans the process holds; the least recently used is dropped first
MAX_PLANS = 64


@functools.lru_cache(maxsize=4 * MAX_PLANS)
def _exchange(
    shape: ProblemShape,
    params: TuningParams | None,
    spec: VariantSpec,
    real: bool,
) -> tuple[ProblemShape, TuningParams]:
    """The shape the pipeline exchanges and its effective parameters.

    A c2c plan exchanges ``shape`` and defaults to the variant's
    baseline; an r2c plan exchanges the ``Nz//2 + 1`` half spectrum with
    :func:`~repro.core.realfft3d.half_params`, as
    :class:`~repro.core.realfft3d.ParallelRFFT3D` does.  A pure function
    of frozen arguments, memoized: every plan lookup derives its key
    here."""
    if real:
        if shape.nz % 2 != 0:
            raise ParameterError(f"real transform needs even Nz, got {shape.nz}")
        xshape = ProblemShape(shape.nx, shape.ny, shape.nz // 2 + 1, shape.p)
        params = half_params(params, xshape)
    else:
        xshape = shape
        if params is None:
            params = baseline_params(spec, shape)
    return xshape, spec.effective_params(params, xshape)


def _rank_program(ctx, plan: DistributedFFT3D, blocks: list[np.ndarray],
                  inverse: bool):
    """One rank of the plan's engine run, on the plan's data path
    (``inverse``: the c2r inverse of an r2c plan)."""
    rank = ctx.rank
    if plan.grid is not None:
        s = plan.shape
        pipeline = PencilFFT3D(ctx, (s.nx, s.ny, s.nz), plan.grid, plan.plans)
    elif inverse:
        pipeline = ParallelIRFFT3D(ctx, plan.shape, plan.params, plan.spec,
                                   path=plan.inverse_paths[rank],
                                   zplan=plan.inverse_plans["z"])
    elif plan.real:
        pipeline = ParallelRFFT3D(ctx, plan.shape, plan.params, plan.spec,
                                  path=plan.paths[rank], zplan=plan.plans["z"])
    else:
        pipeline = ParallelFFT3D(ctx, plan.shape, plan.params, plan.spec,
                                 path=plan.paths[rank])
    return (yield from pipeline.steps(blocks[rank]))


class DistributedFFT3D:
    """A slab-decomposed 3-D FFT on ``shape.p`` simulated ranks of
    ``platform``, planned once and executed many times.

    ``real=False`` transforms complex arrays: :meth:`forward` is the
    paper's pipeline and :meth:`backward` the normalized inverse through
    the conjugation identity, on the same plan and timeline.
    ``real=True`` is the r2c/c2r pair of :mod:`repro.core.realfft3d`:
    :meth:`forward` returns the ``Nz//2 + 1`` half spectrum and
    :meth:`backward` is the c2r inverse, with its own engine run and
    kept timeline.

    ``grid=(pr, pc)`` makes a grid plan (see the module docstring):
    ``real`` or explicit ``params`` raise
    :class:`~repro.errors.ParameterError`, and ``variant`` does not
    apply.
    """

    def __init__(
        self,
        shape: ProblemShape,
        platform: Platform,
        params: TuningParams | None = None,
        variant: str | VariantSpec = "NEW",
        real: bool = False,
        grid: tuple[int, int] | None = None,
    ) -> None:
        spec = get_variant(variant) if isinstance(variant, str) else variant
        self.shape = shape
        self.platform = platform
        self.spec = spec
        self.real = real
        self.grid = grid
        #: z (the r2c kernel on real plans), y and x
        plans = {"z": Plan1D(shape.nz, real=real), "y": Plan1D(shape.ny),
                 "x": Plan1D(shape.nx)}
        self.plans = plans
        self.paths: list[SlabDataPath] = []
        if grid is not None:
            if real or params is not None:
                raise ParameterError(
                    "a grid plan is c2c with one fixed schedule; it takes "
                    "neither real=True nor params"
                )
            check_grid((shape.nx, shape.ny, shape.nz), shape.p, grid)
            self.params = None
        else:
            xshape, self.params = _exchange(shape, params, spec, real)
            if spec.overlap:
                self.params.check_feasible(xshape)
            fftz_mode = "none" if real else "complex"
            self.paths = [
                SlabDataPath(xshape, self.params, spec, r, fftz_mode, plans)
                for r in range(shape.p)
            ]
        #: the c2r inverse's plans (c2r on z, backward-sign y/x) and data paths
        self.inverse_plans: dict[str, Plan1D] = {}
        self.inverse_paths: list[SlabDataPath] = []
        if real:
            self.inverse_plans = inverse_plans(shape)
            self.inverse_paths = [
                SlabDataPath(xshape, self.params, spec, r, "none", self.inverse_plans)
                for r in range(shape.p)
            ]
        #: per direction ("forward", "inverse"): the first engine run's
        #: timeline, without payloads, and its Figure 8 breakdown,
        #: averaged once
        self._kept: dict[str, tuple[SimResult, dict[str, float]]] = {}
        self._first = threading.Lock()
        count("fft3d_plans_built_total", 1, "Distributed 3-D FFT plans built.")

    def kept_breakdown(self, sim: SimResult) -> dict[str, float] | None:
        """The breakdown averaged when ``sim`` was kept, or ``None`` when
        ``sim`` is not one of this plan's kept timelines."""
        for kept, breakdown in self._kept.values():
            if sim is kept:
                return breakdown
        return None

    # -- execution ---------------------------------------------------------

    def forward(self, array: np.ndarray) -> tuple[np.ndarray, SimResult]:
        """Transform ``array``; returns ``(spectrum, timeline)``, the
        spectrum a fresh C-contiguous array matching ``numpy.fft.fftn``
        (``rfftn`` for an r2c plan)."""
        s = self.shape
        if self.real and np.iscomplexobj(array):
            raise ParameterError(
                "an r2c plan transforms real input; got a complex array"
            )
        arr = np.asarray(array, dtype=np.float64 if self.real else np.complex128)
        if arr.shape != (s.nx, s.ny, s.nz):
            raise ParameterError(
                f"array shape {arr.shape} != plan shape ({s.nx}, {s.ny}, {s.nz})"
            )
        return self._execute(arr, inverse=False)

    def backward(self, spectrum: np.ndarray) -> tuple[np.ndarray, SimResult]:
        """Normalized inverse.  A c2c plan runs the forward pipeline
        backward, ``ifft(x) = conj(fft(conj(x))) / N`` (Section 2.3).
        An r2c plan runs its c2r inverse on an ``(Nx, Ny, Nz//2 + 1)``
        half spectrum and returns a fresh real array matching
        ``numpy.fft.irfftn``, which ignores the imaginary parts of the
        ``kz = 0`` and ``kz = Nz/2`` planes after the x and y
        transforms, as this does."""
        arr = np.asarray(spectrum, dtype=np.complex128)
        if self.real:
            s = self.shape
            if arr.shape != (s.nx, s.ny, s.nz // 2 + 1):
                raise ParameterError(
                    f"half spectrum shape {arr.shape} != plan half shape "
                    f"({s.nx}, {s.ny}, {s.nz // 2 + 1})"
                )
            return self._execute(arr, inverse=True)
        out, sim = self.forward(np.conj(arr))
        # the forward output is fresh, so conjugate and scale it in place
        np.conj(out, out=out)
        out /= arr.size
        return out, sim

    def _execute(self, arr: np.ndarray, inverse: bool) -> tuple[np.ndarray, SimResult]:
        """One direction's transform: an engine run the first time (and
        under a rank-span tracer), a replay on the kept timeline after."""
        tracer = current_tracer()
        if tracer is not None and tracer.rank_spans:
            return self._run_engine(arr, inverse)
        direction = "inverse" if inverse else "forward"
        replay = self._replay_c2r if inverse else self._replay
        if direction not in self._kept:
            with self._first:
                if direction not in self._kept:
                    out, sim = self._run_engine(arr, inverse)
                    replayed = replay(arr)
                    if (out.shape != replayed.shape
                            or out.tobytes() != replayed.tobytes()):
                        raise SimulationError(
                            "the replayed output differs from the engine run's"
                        )
                    kept = replace(sim, results=[None] * sim.nprocs)
                    self._kept[direction] = (kept, kept.breakdown(BREAKDOWN_LABELS))
                    return out, kept
        out = replay(arr)
        count("fft3d_replays_total", 1,
              "Distributed 3-D FFTs run on a plan's kept timeline.")
        return out, self._kept[direction][0]

    def _run_engine(self, arr: np.ndarray,
                    inverse: bool = False) -> tuple[np.ndarray, SimResult]:
        """The engine run with payloads and its gathered output."""
        s = self.shape
        pr, pc = self.grid or (s.p, 1)
        sim = run_spmd(s.p, _rank_program, self.platform, self,
                       scatter_slabs(arr, pr, pc), inverse)
        nz_out = s.nz // 2 + 1 if self.real and not inverse else s.nz
        layout = "xyz" if inverse or self.grid else self.paths[0].output_layout
        return gather_spectrum(sim.results, (s.nx, s.ny, nz_out), layout, pc), sim

    def _replay(self, arr: np.ndarray) -> np.ndarray:
        """The spectrum from the whole-array data path alone: one kernel
        call per axis, Pack → exchange → Unpack as one axis permutation.
        The intermediates live in this thread's work arrays; only the
        returned spectrum is fresh."""
        s = self.shape
        nz = s.nz // 2 + 1 if self.real else s.nz
        a, b = _work_arrays(s.nx * s.ny * nz)
        xyz = self.plans["z"].execute(arr, out=a.reshape(s.nx, s.ny, nz))
        return self._yx(xyz, b, a, self.plans).transpose(2, 0, 1).copy()

    def _replay_c2r(self, half: np.ndarray) -> np.ndarray:
        """The c2r inverse from the whole-array data path: the y and x
        kernels as in :meth:`_replay`, then one permute to z-last that
        folds in the ``1/(Nx*Ny)`` normalization, then the c2r on z
        into the fresh real result."""
        s = self.shape
        nzh = s.nz // 2 + 1
        a, b = _work_arrays(s.nx * s.ny * nzh)
        yzx = self._yx(half, b, a, self.inverse_plans)
        return irfft_z(self.inverse_plans["z"], yzx, "yzx", 1.0 / (s.nx * s.ny),
                       b.reshape(s.nx, s.ny, nzh))

    @staticmethod
    def _yx(xyz: np.ndarray, work: np.ndarray, dest: np.ndarray,
            plans: dict[str, Plan1D]) -> np.ndarray:
        """FFTy on an ``(x, z, y)`` copy of ``xyz`` into ``dest``, then
        FFTx on its ``(y, z, x)`` copy in ``work``, into ``dest``: the
        pipeline's y and x stages on the whole array.  Returns the
        ``(y, z, x)`` result, a view of ``dest``."""
        nx, ny, nz = xyz.shape
        xzy = work.reshape(nx, nz, ny)
        np.copyto(xzy, xyz.transpose(0, 2, 1))
        xzy = plans["y"].execute(xzy, out=dest.reshape(xzy.shape))
        yzx = work.reshape(ny, nz, nx)
        np.copyto(yzx, xzy.transpose(2, 1, 0))
        return plans["x"].execute(yzx, out=dest.reshape(yzx.shape))


#: each thread's two replay work arrays (see :func:`_work_arrays`)
_WORK = threading.local()


def _work_arrays(size: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's two flat complex work arrays of ``size`` elements.

    Allocating, freeing and re-faulting a replay's whole-array
    intermediates on every call made a 32³ replay ~1.5x slower on a
    2-vCPU host, so a thread keeps two arrays, grown to its largest
    replay, and every replay reuses them."""
    bufs = getattr(_WORK, "bufs", None)
    if bufs is None or bufs[0].size < size:
        bufs = _WORK.bufs = (np.empty(size, np.complex128),
                             np.empty(size, np.complex128))
    return bufs[0][:size], bufs[1][:size]


_PLANS: OrderedDict[tuple, DistributedFFT3D] = OrderedDict()
_PLANS_LOCK = threading.Lock()
_PLANS_EPOCH = plan_cache_epoch()


def fft3d_plan(
    shape: ProblemShape,
    platform: Platform,
    params: TuningParams | None = None,
    variant: str | VariantSpec = "NEW",
    real: bool = False,
    grid: tuple[int, int] | None = None,
) -> DistributedFFT3D:
    """The process's plan for these arguments, built on first use.

    Plans are keyed by (c2c or r2c, platform, shape, variant, effective
    parameters, active fault spec, default planner effort, process
    grid), so two calls share a plan exactly when their transforms run
    the same timeline on the same 1-D plans."""
    global _PLANS_EPOCH
    spec = get_variant(variant) if isinstance(variant, str) else variant
    eff = params if grid is not None else _exchange(shape, params, spec, real)[1]
    faults = current_faults()
    key = (real, platform, shape, spec, eff,
           "" if faults is None else faults.key(), default_planning_flag(),
           grid)
    with _PLANS_LOCK:
        epoch = plan_cache_epoch()
        if epoch != _PLANS_EPOCH:
            _PLANS.clear()
            _PLANS_EPOCH = epoch
        plan = _PLANS.get(key)
        if plan is None:
            plan = _PLANS[key] = DistributedFFT3D(shape, platform, eff, spec,
                                                  real, grid)
            if len(_PLANS) > MAX_PLANS:
                _PLANS.popitem(last=False)
        else:
            _PLANS.move_to_end(key)
        return plan
