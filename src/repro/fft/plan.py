"""FFTW-style planning for the from-scratch FFT kernels.

A :class:`Plan1D` selects, for one transform size and direction, the best
kernel of the gemm family (:mod:`repro.fft.dftmat`) among its candidates
(:func:`_candidates`):

* ``direct`` -- one dense DFT product, for sizes up to ``DIRECT_MAX``;
* ``twofactor:{n1}x{n2}`` -- the four-step kernel on the most balanced
  split of a composite size, its factors planned like any other size;
* ``bluestein`` -- chirp-z over a power-of-two convolution (the only
  option for a prime above ``DIRECT_MAX``).

A *real* plan (``real=True``, even sizes) is an r2c transform when
forward and the normalized c2r inverse when backward.  Its candidates
are ``rdirect``, one real gemm, for sizes up to ``DIRECT_MAX``, and
``rpacked``, the packing trick around the planned complex kernel of
half the size.

Candidate selection depends on the planner *flag* — the same four levels
FFTW exposes and the paper discusses in Section 4.1:

``ESTIMATE``
    pick by a cost model that prices gemm arithmetic, memory passes and
    numpy calls (:func:`_cost`), build and run nothing;
``MEASURE``
    time each candidate once on a small batch;
``PATIENT``
    time each candidate several times on two batch shapes (the level the
    paper uses for all FFTW tuning);
``EXHAUSTIVE``
    like PATIENT with more repetitions.

Winning kernels are recorded in a :class:`~repro.fft.wisdom.WisdomStore`
(real plans under their own keys) so identical plans are free; an entry
naming a kernel this planner no longer has, or one of the other kind
(real or complex), is treated as a miss and re-planned.
"""

from __future__ import annotations

import contextlib
import enum
import math
import threading
import time

import numpy as np

from ..errors import PlanError
from ..util.intmath import next_pow2
from .bluestein import BluesteinPlan
from .dftmat import (
    BACKWARD,
    DIRECT_MAX,
    FORWARD,
    DirectPlan,
    PackedRealPlan,
    RealDirectPlan,
    TwoFactorPlan,
)
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

#: Largest input a kernel call transforms at once (:func:`in_row_blocks`),
#: which keeps two-factor and Bluestein temporaries cache-sized.  On a
#: 2-vCPU x86 host the replayed 32³-128³ transforms ran 12-29% faster in
#: 512 KiB blocks than in 96 KiB ones, faulting no fresh pages either
#: way, and a 128³ axis in one call ran 50% slower.
BLOCK_BYTES = 512 * 1024

#: Process-wide default effort used when a plan is built with ``flag=None``.
_DEFAULT_FLAG = Flag.ESTIMATE
_DEFAULT_FLAG_LOCK = threading.Lock()


def in_row_blocks(fn, x: np.ndarray, width: int,
                  out: np.ndarray | None = None,
                  dtype: type = np.complex128) -> np.ndarray:
    """``fn`` on the rows of a contiguous ``(..., m)`` batch, in blocks of
    at most :data:`BLOCK_BYTES` of input so each block's temporaries stay
    small.  ``fn(rows, out=None)`` maps ``(b, m)`` rows to ``(b, width)``
    rows of ``dtype``, each row on its own (the kernels are bitwise
    batch-independent), so the blocking never changes a bit; it writes
    each block's rows straight into their place in the result.  The
    result goes to ``out`` when given: a C-contiguous ``dtype``
    ``(..., width)`` array not overlapping ``x``."""
    lead = x.shape[:-1]
    if out is not None and not (out.shape == (*lead, width)
                                and out.dtype == dtype
                                and out.flags.c_contiguous):
        raise PlanError(f"out must be a C-contiguous {np.dtype(dtype).name} "
                        f"array of shape {(*lead, width)}")
    m = x.shape[-1]
    rows = x.size // m
    step = max(1, BLOCK_BYTES // (x.itemsize * m))
    if out is None:
        if rows <= step:
            return fn(x)
        out = np.empty((*lead, width), dtype)
    src, dst = x.reshape(rows, m), out.reshape(rows, width)
    for r0 in range(0, rows, step):
        fn(src[r0 : r0 + step], out=dst[r0 : r0 + step])
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


def _factors(descriptor: str, n: int) -> tuple[int, int]:
    """``(n1, n2)`` of a ``twofactor:{n1}x{n2}`` descriptor for size ``n``."""
    try:
        n1, n2 = (int(f) for f in descriptor.split(":", 1)[1].split("x"))
    except ValueError:
        raise PlanError(f"unknown kernel descriptor {descriptor!r}") from None
    if min(n1, n2) < 2 or n1 * n2 != n:
        raise PlanError(f"kernel {descriptor!r} does not split size {n}")
    return n1, n2


def _make_kernel(descriptor: str, n: int, sign: int):
    """Instantiate a kernel from its wisdom descriptor string."""
    if descriptor == "direct":
        return DirectPlan(n, sign)
    if descriptor == "rdirect":
        return RealDirectPlan(n, sign)
    if descriptor == "rpacked":
        return PackedRealPlan(n, planned_kernel(n // 2, sign), sign)
    if descriptor == "bluestein":
        return BluesteinPlan(n, sign, planned_kernel)
    if descriptor.startswith("twofactor:"):
        n1, n2 = _factors(descriptor, n)
        return TwoFactorPlan(n1, n2, planned_kernel(n1, sign),
                             planned_kernel(n2, sign), sign)
    raise PlanError(f"unknown kernel descriptor {descriptor!r}")


#: the descriptors of the real (r2c/c2r) kernels
REAL_KERNELS = ("rdirect", "rpacked")


def _candidates(n: int, real: bool = False) -> list[str]:
    """Kernel descriptors worth considering for size ``n``: the dense
    kernel up to :data:`DIRECT_MAX`, the most balanced two-factor split
    of a composite size, and Bluestein for sizes above 8 that are not
    powers of two (its own convolution length is one).  A real
    transform has the dense real kernel up to :data:`DIRECT_MAX` and
    the packed one."""
    if real:
        return [d for d in REAL_KERNELS if d != "rdirect" or n <= DIRECT_MAX]
    out: list[str] = []
    if n <= DIRECT_MAX:
        out.append("direct")
    n1 = max((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), default=0)
    if n1:
        out.append(f"twofactor:{n1}x{n // n1}")
    if n > 8 and n & (n - 1):
        out.append("bluestein")
    return out


#: Cost-model constants for ``Flag.ESTIMATE``, fitted once to a
#: micro-measurement on a 2-vCPU x86 host (numpy on OpenBLAS 0.3, 96 KiB
#: blocks of complex128 rows, median of 201 calls): a zgemm
#: ``(R, K) @ (K, K)`` ran at 56 real flop/ns for K >= 32 but took
#: 4.0-4.4 ns per output element for any K <= 16, and a transposing
#: copy 1.7 ns per element, so moving an element costs ~2 ns and a gemm
#: moves its output twice; a numpy call on a tiny array cost 1.3 us
#: (ufunc) to 3.5 us (matmul).  The model then puts a 64-point direct
#: kernel at 0.85 us per row and the 8x8 two-factor one at 1.19 us
#: (measured 0.6-0.9 and 1.27 us), and the 8x16 two-factor kernel for
#: n = 128 at 2.5 us (measured 2.7-3.2 us).
GEMM_NS_PER_FLOP = 1 / 56
PASS_NS = 2.0
CALL_NS = 2000.0


def _work(descriptor: str, n: int) -> tuple[float, float, float]:
    """What a kernel does per row of ``n``: ``(gemm flops, elements
    moved through memory, numpy calls per block)``.  A gemm moves its
    output twice; the two-factor kernel adds two transposing copies and
    a fused twiddle-and-transpose (4 moves per element); Bluestein pads
    into and multiplies on length-``m`` rows.  The dense real kernel is
    a real gemm onto the ``n/2 + 1`` complex elements of the half
    spectrum; the packed one adds ~8 elementwise passes over them to
    its half-size complex kernel."""
    if descriptor == "direct":
        return 8.0 * n * n, 2.0 * n, 1.0
    if descriptor == "rdirect":
        return 2.0 * n * (n + 2), n + 2.0, 1.0
    if descriptor == "rpacked":
        h = n // 2
        flops, moved, calls = _work(_estimate(h), h)
        return flops, moved + 8.0 * (h + 1), calls + 8
    if descriptor == "bluestein":
        m = next_pow2(2 * n - 1)
        flops, moved, calls = _work(_estimate(m), m)
        return 2 * flops, 2 * moved + 3 * m + 4 * n, 2 * calls + 4
    if descriptor.startswith("twofactor:"):
        n1, n2 = _factors(descriptor, n)
        f1, m1, c1 = _work(_estimate(n1), n1)
        f2, m2, c2 = _work(_estimate(n2), n2)
        return n2 * f1 + n1 * f2, n2 * m1 + n1 * m2 + 4 * n, c1 + c2 + 3
    raise PlanError(f"unknown kernel descriptor {descriptor!r}")


def _cost(descriptor: str, n: int) -> float:
    """Estimated nanoseconds per row of ``n`` when a kernel runs on full
    :data:`BLOCK_BYTES` blocks (:func:`_work` priced by the constants
    above; a call's price is shared by the block's rows)."""
    flops, moved, calls = _work(descriptor, n)
    per_block = max(BLOCK_BYTES // 16, n)
    return (GEMM_NS_PER_FLOP * flops + PASS_NS * moved
            + CALL_NS * calls * n / per_block)


def _estimate(n: int, real: bool = False) -> str:
    """The cheapest candidate for size ``n`` under :func:`_cost`."""
    return min(_candidates(n, real), key=lambda d: _cost(d, n))


def planned_kernel(n: int, sign: int):
    """The shared kernel ``ESTIMATE`` picks for size ``n``: how factor
    and Bluestein inner transforms are planned, without wisdom."""
    return _cached_kernel(_estimate(n), n, sign)


class Plan1D:
    """A reusable plan for 1-D FFTs of one size.

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
    real:
        Plan a real transform of even ``n``: forward maps ``n`` reals to
        the ``n//2 + 1`` complex half spectrum (``numpy.fft.rfft``),
        backward maps a half spectrum back to ``n`` reals, normalized
        (``numpy.fft.irfft``).
    """

    def __init__(
        self,
        n: int,
        sign: int = FORWARD,
        flag: Flag | None = None,
        wisdom: WisdomStore | None = None,
        real: bool = False,
    ) -> None:
        if n < 1 or (real and n % 2):
            raise PlanError(f"FFT size must be {'even and ' if real else ''}"
                            f">= 1, got {n}")
        if sign not in (FORWARD, BACKWARD):
            raise PlanError(f"sign must be -1 or +1, got {sign}")
        self.n = n
        self.sign = sign
        self.real = real
        rows = ((n, np.float64), (n // 2 + 1, np.complex128))
        if not real:
            rows = ((n, np.complex128),) * 2
        elif sign == BACKWARD:
            rows = rows[::-1]
        #: row length and dtype of the input and of the output
        (self.in_width, self._in_dtype), (self.out_width, self._out_dtype) = rows
        self.flag = flag if flag is not None else _DEFAULT_FLAG
        self._wisdom = wisdom if wisdom is not None else GLOBAL_WISDOM
        self.kernel_name, self._kernel = self._plan()

    # -- planning --------------------------------------------------------

    def _plan(self) -> tuple[str, object]:
        cached = self._wisdom.lookup(self.n, self.sign, self.flag.value,
                                     self.real)
        if cached is not None and (cached in REAL_KERNELS) == self.real:
            try:
                kern = _cached_kernel(cached, self.n, self.sign)
            except PlanError:
                pass  # a descriptor this planner no longer has: re-plan
            else:
                _count("fft_wisdom_hits_total")
                return cached, kern
        _count("fft_plans_built_total", flag=self.flag.value)
        names = _candidates(self.n, self.real)
        if self.flag is Flag.ESTIMATE or len(names) == 1:
            best = _estimate(self.n, self.real)
        else:
            reps, batches = _EFFORT[self.flag]
            best, best_t = names[0], float("inf")
            for name in names:
                kern = _cached_kernel(name, self.n, self.sign)
                t = 0.0
                for b in batches:
                    x = np.ones((b, self.in_width), dtype=self._in_dtype)
                    kern.execute(x)  # warm any lazy caches
                    t0 = time.perf_counter()
                    for _ in range(reps):
                        kern.execute(x)
                    t += time.perf_counter() - t0
                if t < best_t:
                    best, best_t = name, t
        self._wisdom.record(self.n, self.sign, self.flag.value, best,
                            real=self.real)
        return best, _cached_kernel(best, self.n, self.sign)

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        x: np.ndarray,
        axis: int = -1,
        normalize: bool = False,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Transform ``x`` along ``axis``; returns a new array (complex,
        or real for a c2r plan), or ``out`` when given: a C-contiguous
        array of the result's shape and dtype, not overlapping ``x``,
        that a last-axis transform writes its result into.  A real
        plan's axis has :attr:`in_width` elements and ``normalize``
        does not apply to it (c2r is normalized already)."""
        x = np.asarray(x)
        if x.shape[axis] != self.in_width:
            raise PlanError(
                f"plan takes {self.in_width} elements along the axis "
                f"(size {self.n}), axis {axis} has length {x.shape[axis]}"
            )
        if normalize and self.real:
            raise PlanError("normalize is for complex plans")
        # The pipelines transform the last axis; skip the two moveaxis
        # round trips, which cost more than a small kernel call.
        last = axis == -1 or axis == x.ndim - 1
        if out is not None and not last:
            raise PlanError("out is for last-axis transforms")
        moved = x if last else np.moveaxis(x, axis, -1)
        res = in_row_blocks(self._kernel.execute,
                            np.ascontiguousarray(moved, dtype=self._in_dtype),
                            self.out_width, out, self._out_dtype)
        if normalize:
            res = np.divide(res, self.n, out=out)
        return res if last else np.moveaxis(res, -1, axis)

    @property
    def flop_estimate(self) -> float:
        """Gemm floating-point operations for one transform."""
        return _work(self.kernel_name, self.n)[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        d = "forward" if self.sign == FORWARD else "backward"
        if self.real:
            d = "r2c" if self.sign == FORWARD else "c2r"
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
