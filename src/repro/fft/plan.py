"""FFTW-style planning for the from-scratch FFT kernels.

A :class:`Plan1D` selects, for one transform size and direction, the best
kernel among several candidates:

* mixed-radix Cooley-Tukey with different factorization policies
  (:data:`repro.fft.stockham.POLICIES`),
* Bluestein chirp-z (always applicable; the only fast option for large
  prime sizes),
* a direct dense DFT for tiny sizes.

Candidate selection depends on the planner *flag* — the same four levels
FFTW exposes and the paper discusses in Section 4.1:

``ESTIMATE``
    pick by analytic FLOP estimate, run nothing;
``MEASURE``
    time each candidate once on a small batch;
``PATIENT``
    time each candidate several times on two batch shapes (the level the
    paper uses for all FFTW tuning);
``EXHAUSTIVE``
    like PATIENT with more repetitions.

Winning kernels are recorded in a :class:`~repro.fft.wisdom.WisdomStore`
so identical plans are free.
"""

from __future__ import annotations

import contextlib
import enum
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..errors import PlanError
from ..util.intmath import prime_factors
from .bluestein import BluesteinPlan
from .dftmat import BACKWARD, DIRECT_MAX, FORWARD, direct_dft
from .stockham import POLICIES, StagePlan
from .wisdom import GLOBAL_WISDOM, WisdomStore


class Flag(enum.Enum):
    """Planner effort level (mirrors FFTW's planning flags)."""

    ESTIMATE = "estimate"
    MEASURE = "measure"
    PATIENT = "patient"
    EXHAUSTIVE = "exhaustive"


#: (repetitions, batch sizes) used when timing candidates per flag level.
_EFFORT = {
    Flag.MEASURE: (1, (8,)),
    Flag.PATIENT: (3, (4, 32)),
    Flag.EXHAUSTIVE: (7, (4, 32, 128)),
}

#: Largest input a kernel call transforms at once (:func:`in_row_blocks`).
#: A block's temporaries are about its size, so at 96 KiB they stay under
#: glibc's default 128 KiB mmap threshold and come from the heap, not from
#: fresh pages.  On a 2-vCPU x86 host, 96 KiB blocks ran whole 32³-96³
#: arrays at least as fast as 64 or 128 KiB; 256 KiB blocks made every
#: 32³ call fault ~1900 fresh pages.
BLOCK_BYTES = 96 * 1024

#: Process-wide default effort used when a plan is built with ``flag=None``.
_DEFAULT_FLAG = Flag.ESTIMATE
_DEFAULT_FLAG_LOCK = threading.Lock()


def in_row_blocks(fn, x: np.ndarray, width: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """``fn`` on the rows of a contiguous ``(..., m)`` batch, in blocks of
    at most :data:`BLOCK_BYTES` of input so each block's temporaries stay
    small.  ``fn`` maps ``(b, m)`` rows to ``(b, width)`` complex rows,
    each row on its own (the kernels are bitwise batch-independent), so
    the blocking never changes a bit.  The result goes to ``out`` when
    given: a C-contiguous complex128 ``(..., width)`` array not
    overlapping ``x``."""
    lead = x.shape[:-1]
    if out is not None and not (out.shape == (*lead, width)
                                and out.dtype == np.complex128
                                and out.flags.c_contiguous):
        raise PlanError(f"out must be a C-contiguous complex128 array of "
                        f"shape {(*lead, width)}")
    m = x.shape[-1]
    rows = x.size // m
    step = max(1, BLOCK_BYTES // (x.itemsize * m))
    if out is None:
        if rows <= step:
            return fn(x)
        out = np.empty((*lead, width), np.complex128)
    src, dst = x.reshape(rows, m), out.reshape(rows, width)
    for r0 in range(0, rows, step):
        dst[r0 : r0 + step] = fn(src[r0 : r0 + step])
    return out


def default_planning_flag() -> Flag:
    """Current process-wide default planner effort."""
    return _DEFAULT_FLAG


@contextlib.contextmanager
def planning_effort(flag: Flag):
    """Override the default planner effort for plans built in this block.

    Plans (and the 3-D/real helpers built on them) that don't pass an
    explicit ``flag`` pick up this default, so an application can opt a
    whole pipeline into e.g. ``Flag.PATIENT`` — the level the paper uses
    for all FFTW tuning — without threading a flag through every layer.
    The override is process-global (matching the process-global wisdom
    store), so apply it around setup/warmup, not concurrently with other
    planning at different levels.
    """
    global _DEFAULT_FLAG
    if not isinstance(flag, Flag):
        flag = Flag(str(flag).lower())
    with _DEFAULT_FLAG_LOCK:
        previous = _DEFAULT_FLAG
        _DEFAULT_FLAG = flag
    try:
        yield flag
    finally:
        with _DEFAULT_FLAG_LOCK:
            _DEFAULT_FLAG = previous


#: Built kernels shared across plans: kernels are immutable after
#: construction (twiddle tables, chirp vectors), so one instance per
#: ``(descriptor, n, sign)`` serves every plan in the process.
_KERNEL_CACHE: dict[tuple[str, int, int], object] = {}
_KERNEL_CACHE_LOCK = threading.Lock()


#: Bumped by every :func:`clear_plan_cache`; caches of plans built on
#: these kernels (:mod:`repro.core.distplan`) drop their entries when it
#: moves, without this module importing theirs.
_CACHE_EPOCH = 0


def clear_plan_cache() -> None:
    """Drop all cached kernels and, through the cache epoch, every held
    distributed 3-D FFT plan (test isolation; wisdom is separate)."""
    global _CACHE_EPOCH
    with _KERNEL_CACHE_LOCK:
        _KERNEL_CACHE.clear()
        _CACHE_EPOCH += 1


def plan_cache_epoch() -> int:
    """How many times :func:`clear_plan_cache` has run."""
    return _CACHE_EPOCH


def _count(name: str, value: int = 1, **labels: str) -> None:
    # Deferred import: repro.obs pulls in the engine stack, and importing
    # it at module scope would cycle back through repro.fft.
    from ..obs.registry import count

    count(name, value, **labels)


def _cached_kernel(descriptor: str, n: int, sign: int):
    """Shared-kernel lookup; builds (and counts) on first use."""
    key = (descriptor, n, sign)
    with _KERNEL_CACHE_LOCK:
        kern = _KERNEL_CACHE.get(key)
    if kern is not None:
        _count("fft_kernel_cache_hits_total")
        return kern
    kern = _make_kernel(descriptor, n, sign)
    _count("fft_kernel_builds_total")
    with _KERNEL_CACHE_LOCK:
        return _KERNEL_CACHE.setdefault(key, kern)


@dataclass(frozen=True)
class _Direct:
    """Dense-DFT kernel wrapper with the common kernel interface."""

    n: int
    sign: int

    def execute(self, x: np.ndarray) -> np.ndarray:
        """Dense DFT of the last axis (direct O(n^2) product)."""
        return direct_dft(x, self.sign)

    @property
    def flop_estimate(self) -> float:
        """Analytic FLOP count of the dense product."""
        return 8.0 * self.n * self.n


def _make_kernel(descriptor: str, n: int, sign: int):
    """Instantiate a kernel from its wisdom descriptor string."""
    if descriptor == "direct":
        return _Direct(n, sign)
    if descriptor == "bluestein":
        return BluesteinPlan(n, sign)
    if descriptor.startswith("mixed:"):
        return StagePlan(n, sign, descriptor.split(":", 1)[1])
    raise PlanError(f"unknown kernel descriptor {descriptor!r}")


def _candidates(n: int) -> list[str]:
    """Kernel descriptors worth considering for size ``n``."""
    out: list[str] = []
    if n <= DIRECT_MAX:
        out.append("direct")
    factors = prime_factors(n)
    if n > 1 and max(factors) <= DIRECT_MAX:
        seen: set[tuple[int, ...]] = set()
        for policy in POLICIES:
            from .stockham import radix_path

            path = tuple(radix_path(n, policy))
            if path in seen:
                continue
            seen.add(path)
            out.append(f"mixed:{policy}")
    if n > 8:
        out.append("bluestein")
    if not out:  # n == 1
        out.append("direct")
    return out


class Plan1D:
    """A reusable plan for 1-D complex-to-complex FFTs of one size.

    Parameters
    ----------
    n:
        Transform length.
    sign:
        ``-1`` forward (default), ``+1`` backward (unnormalized; divide by
        ``n`` for the inverse, or use :meth:`execute` with
        ``normalize=True``).
    flag:
        Planner effort level (``None`` picks up the process default, see
        :func:`planning_effort`).
    wisdom:
        Wisdom store consulted/updated during planning (defaults to the
        process-global store).
    """

    def __init__(
        self,
        n: int,
        sign: int = FORWARD,
        flag: Flag | None = None,
        wisdom: WisdomStore | None = None,
    ) -> None:
        if n < 1:
            raise PlanError(f"FFT size must be >= 1, got {n}")
        if sign not in (FORWARD, BACKWARD):
            raise PlanError(f"sign must be -1 or +1, got {sign}")
        self.n = n
        self.sign = sign
        self.flag = flag if flag is not None else _DEFAULT_FLAG
        self._wisdom = wisdom if wisdom is not None else GLOBAL_WISDOM
        self.kernel_name = self._plan()
        self._kernel = _cached_kernel(self.kernel_name, n, sign)

    # -- planning --------------------------------------------------------

    def _plan(self) -> str:
        cached = self._wisdom.lookup(self.n, self.sign, self.flag.value)
        if cached is not None:
            _count("fft_wisdom_hits_total")
            return cached
        _count("fft_plans_built_total", flag=self.flag.value)
        names = _candidates(self.n)
        if self.flag is Flag.ESTIMATE or len(names) == 1:
            best = min(names, key=lambda d: _cached_kernel(d, self.n, self.sign).flop_estimate)
        else:
            reps, batches = _EFFORT[self.flag]
            best, best_t = names[0], float("inf")
            for name in names:
                kern = _cached_kernel(name, self.n, self.sign)
                t = 0.0
                for b in batches:
                    x = np.ones((b, self.n), dtype=np.complex128)
                    kern.execute(x)  # warm any lazy caches
                    t0 = time.perf_counter()
                    for _ in range(reps):
                        kern.execute(x)
                    t += time.perf_counter() - t0
                if t < best_t:
                    best, best_t = name, t
        self._wisdom.record(self.n, self.sign, self.flag.value, best)
        return best

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        x: np.ndarray,
        axis: int = -1,
        normalize: bool = False,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Transform ``x`` along ``axis``; returns a new complex array,
        or ``out`` when given: a C-contiguous complex array of ``x``'s
        shape, not overlapping ``x``, that a last-axis transform writes
        its result into."""
        x = np.asarray(x)
        if x.shape[axis] != self.n:
            raise PlanError(
                f"plan is for size {self.n}, axis {axis} has length {x.shape[axis]}"
            )
        # The pipelines transform the last axis; skip the two moveaxis
        # round trips, which cost more than a small kernel call.
        last = axis == -1 or axis == x.ndim - 1
        if out is not None and not last:
            raise PlanError("out is for last-axis transforms")
        moved = x if last else np.moveaxis(x, axis, -1)
        res = in_row_blocks(self._kernel.execute,
                            np.ascontiguousarray(moved, dtype=np.complex128),
                            self.n, out)
        if normalize:
            res = np.divide(res, self.n, out=out)
        return res if last else np.moveaxis(res, -1, axis)

    @property
    def flop_estimate(self) -> float:
        """Estimated floating-point operations for one transform."""
        return float(self._kernel.flop_estimate)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        d = "forward" if self.sign == FORWARD else "backward"
        return f"Plan1D(n={self.n}, {d}, {self.flag.value}, kernel={self.kernel_name})"


def fft(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """One-shot forward FFT along ``axis`` (plans with ESTIMATE)."""
    return Plan1D(np.asarray(x).shape[axis]).execute(x, axis=axis)


def ifft(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """One-shot normalized inverse FFT along ``axis``."""
    return Plan1D(np.asarray(x).shape[axis], BACKWARD).execute(
        x, axis=axis, normalize=True
    )


class Plan3D:
    """Serial 3-D complex FFT: three sets of 1-D FFTs, one per axis.

    This is the single-process reference implementation of the method in
    Section 2.1 of the paper ("the composition of a sequence of d sets of
    1-D FFTs along each dimension"); the distributed pipeline in
    :mod:`repro.core` is verified against it.
    """

    def __init__(
        self,
        shape: tuple[int, int, int],
        sign: int = FORWARD,
        flag: Flag | None = None,
    ) -> None:
        if len(shape) != 3:
            raise PlanError(f"Plan3D requires a 3-D shape, got {shape}")
        self.shape = tuple(int(s) for s in shape)
        self.sign = sign
        self.plans = [Plan1D(s, sign, flag) for s in self.shape]

    def execute(self, x: np.ndarray, normalize: bool = False) -> np.ndarray:
        """Transform a ``shape``-shaped array over all three axes."""
        x = np.asarray(x)
        if x.shape != self.shape:
            raise PlanError(f"plan is for shape {self.shape}, got {x.shape}")
        out = x
        for axis, plan in enumerate(self.plans):
            out = plan.execute(out, axis=axis)
        if normalize:
            out = out / (self.shape[0] * self.shape[1] * self.shape[2])
        return out


def fftn(x: np.ndarray) -> np.ndarray:
    """One-shot serial 3-D forward FFT."""
    return Plan3D(tuple(np.asarray(x).shape)).execute(x)


def ifftn(x: np.ndarray) -> np.ndarray:
    """One-shot serial 3-D normalized inverse FFT."""
    return Plan3D(tuple(np.asarray(x).shape), BACKWARD).execute(x, normalize=True)
