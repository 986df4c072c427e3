"""Deterministic, seed-keyed fault injection for the simulated machine.

The paper's NEW design hides communication behind computation only when
manual ``MPI_Test`` progression keeps pace with the fabric (Section
3.3); the interesting production question is how much of that overlap
survives a degraded machine.  This module answers it *inside the
model*: a :class:`FaultSpec` describes perturbations of the simulated
cluster — straggler ranks, degraded links, latency jitter and spikes,
delayed progression polls — and the engine/fabric apply them while the
discrete-event simulation stays bit-for-bit deterministic under a fixed
seed.

Fault kinds (the ``--faults`` grammar; clauses joined with ``;``)::

    straggler:rank=3,slow=2.0      # rank 3's CPU runs 2x slower
    degrade:rank=1,bw=0.5          # rank 1 injects at half bandwidth
    jitter:amp=2e-6                # per-message extra latency in [0, amp)
    spike:prob=0.01,extra=5e-4     # with prob, add `extra` s to a message
    poll:rank=2,factor=4.0         # rank 2's MPI_Test epochs 4x sparser
    seed:42                        # RNG seed for jitter/spike draws

``rank=all`` (the default for every clause but ``straggler``) applies a
clause to every rank.  Multiple clauses of the same kind compose (e.g.
two ``straggler`` clauses for two slow ranks).

Determinism: per-message randomness (jitter, spikes) is drawn from a
stateless splitmix64 hash of ``(seed, rank, per-rank draw counter)``.
Ranks draw in program order and the engine's single-token min-time
scheduler makes that order a pure function of the program, so the same
spec and seed always yield the same simulated times.

Installation mirrors :mod:`repro.obs`: faults are *ambient*.
:func:`install_faults` / :func:`injected_faults` put a spec on a
process-wide stack; every :class:`~repro.simmpi.engine.Engine`
constructed inside the scope picks it up, so fault injection reaches
every simulation a tuning loop or grid cell runs without threading a
parameter through the whole call graph.  The execution layer ships the
active spec to pool workers (like FFT wisdom), and the benchmark memo /
result store key cells by the active spec so faulty and fault-free
results never alias.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import FaultSpecError

__all__ = [
    "ALL_RANKS",
    "FaultModel",
    "FaultSpec",
    "FaultSpecError",
    "current_faults",
    "injected_faults",
    "install_faults",
    "parse_faults",
    "uninstall_faults",
]

#: sentinel rank meaning "every rank" in a clause
ALL_RANKS = -1

_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 output step (stateless, well-mixed 64-bit hash)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def _u01(seed: int, rank: int, counter: int) -> float:
    """Deterministic uniform in [0, 1) keyed by (seed, rank, counter)."""
    h = _splitmix64(seed & _MASK)
    h = _splitmix64(h ^ ((rank + 1) * 0xA24BAED4963EE407))
    h = _splitmix64(h ^ counter)
    return h / float(1 << 64)


@dataclass(frozen=True)
class FaultSpec:
    """Parsed, normalized fault specification.

    Frozen and hashable so it can ride in cache keys; :meth:`key` is the
    canonical string form (stable under clause reordering).
    """

    #: rank -> CPU slowdown multiplier (>= 1)
    stragglers: tuple[tuple[int, float], ...] = ()
    #: rank (or ALL_RANKS) -> injection-bandwidth factor (0 < f <= 1)
    degrade: tuple[tuple[int, float], ...] = ()
    #: per-message extra latency drawn uniformly from [0, amp) seconds
    jitter_amp: float = 0.0
    #: latency-spike probability per message and its size in seconds
    spike_prob: float = 0.0
    spike_s: float = 0.0
    #: rank (or ALL_RANKS) -> progression-poll delay factor (>= 1)
    poll: tuple[tuple[int, float], ...] = ()
    seed: int = 0

    def __bool__(self) -> bool:
        return bool(
            self.stragglers or self.degrade or self.poll
            or self.jitter_amp > 0.0
            or (self.spike_prob > 0.0 and self.spike_s > 0.0)
        )

    def key(self) -> str:
        """Canonical spec string: parseable, order-independent."""
        parts = []
        for rank, slow in sorted(self.stragglers):
            parts.append(f"straggler:rank={_rank_str(rank)},slow={slow:g}")
        for rank, bw in sorted(self.degrade):
            parts.append(f"degrade:rank={_rank_str(rank)},bw={bw:g}")
        if self.jitter_amp > 0.0:
            parts.append(f"jitter:amp={self.jitter_amp:g}")
        if self.spike_prob > 0.0 and self.spike_s > 0.0:
            parts.append(f"spike:prob={self.spike_prob:g},extra={self.spike_s:g}")
        for rank, factor in sorted(self.poll):
            parts.append(f"poll:rank={_rank_str(rank)},factor={factor:g}")
        if parts and self.seed:
            parts.append(f"seed:{self.seed}")
        return ";".join(parts)

    def model(self, nprocs: int) -> "FaultModel | None":
        """Per-run fault state for a ``nprocs``-rank job (``None`` when
        the spec is empty — the engine's fast "no faults" path)."""
        if not self:
            return None
        return FaultModel(self, nprocs)


def _rank_str(rank: int) -> str:
    return "all" if rank == ALL_RANKS else str(rank)


def _parse_rank(value: str) -> int:
    if value.strip().lower() in ("all", "*"):
        return ALL_RANKS
    try:
        rank = int(value)
    except ValueError:
        raise FaultSpecError(f"bad rank {value!r} (int, 'all' or '*')") from None
    if rank < 0:
        raise FaultSpecError(f"rank must be >= 0 or 'all', got {rank}")
    return rank


def _clause_fields(clause: str, body: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for item in body.split(","):
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise FaultSpecError(
                f"bad field {item!r} in clause {clause!r} (expected key=value)"
            )
        fields[key.strip().lower()] = value.strip()
    return fields


def _take(fields: dict[str, str], clause: str, key: str, default=None) -> str:
    if key in fields:
        return fields.pop(key)
    if default is not None:
        return default
    raise FaultSpecError(f"clause {clause!r} is missing required field {key!r}")


def _float(clause: str, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise FaultSpecError(
            f"bad value {value!r} for {key!r} in clause {clause!r}"
        ) from None


def parse_faults(text: str | None) -> FaultSpec:
    """Parse a ``--faults`` specification string into a :class:`FaultSpec`.

    An empty/None string yields an empty (falsy) spec.  Raises
    :class:`FaultSpecError` with the offending clause on any malformed
    input — never a bare ``ValueError``.
    """
    if not text or not text.strip():
        return FaultSpec()
    stragglers: list[tuple[int, float]] = []
    degrade: list[tuple[int, float]] = []
    poll: list[tuple[int, float]] = []
    jitter_amp = 0.0
    spike_prob = 0.0
    spike_s = 0.0
    seed = 0
    for raw in text.split(";"):
        clause = raw.strip()
        if not clause:
            continue
        kind, _, body = clause.partition(":")
        kind = kind.strip().lower()
        if kind == "seed":
            try:
                seed = int(body)
            except ValueError:
                raise FaultSpecError(f"bad seed {body!r}") from None
            continue
        fields = _clause_fields(clause, body)
        if kind == "straggler":
            rank = _parse_rank(_take(fields, clause, "rank"))
            slow = _float(clause, "slow", _take(fields, clause, "slow"))
            if slow < 1.0:
                raise FaultSpecError(
                    f"straggler slow must be >= 1 (a slowdown), got {slow}"
                )
            stragglers.append((rank, slow))
        elif kind == "degrade":
            rank = _parse_rank(_take(fields, clause, "rank", "all"))
            bw = _float(clause, "bw", _take(fields, clause, "bw"))
            if not 0.0 < bw <= 1.0:
                raise FaultSpecError(
                    f"degrade bw must be in (0, 1], got {bw}"
                )
            degrade.append((rank, bw))
        elif kind == "jitter":
            jitter_amp = _float(clause, "amp", _take(fields, clause, "amp"))
            if jitter_amp < 0.0:
                raise FaultSpecError(f"jitter amp must be >= 0, got {jitter_amp}")
        elif kind == "spike":
            spike_prob = _float(clause, "prob", _take(fields, clause, "prob"))
            spike_s = _float(clause, "extra", _take(fields, clause, "extra"))
            if not 0.0 <= spike_prob <= 1.0:
                raise FaultSpecError(
                    f"spike prob must be in [0, 1], got {spike_prob}"
                )
            if spike_s < 0.0:
                raise FaultSpecError(f"spike extra must be >= 0, got {spike_s}")
        elif kind == "poll":
            rank = _parse_rank(_take(fields, clause, "rank", "all"))
            factor = _float(clause, "factor", _take(fields, clause, "factor"))
            if factor < 1.0:
                raise FaultSpecError(
                    f"poll factor must be >= 1 (a delay), got {factor}"
                )
            poll.append((rank, factor))
        else:
            raise FaultSpecError(
                f"unknown fault kind {kind!r} in clause {clause!r}; known: "
                "straggler, degrade, jitter, spike, poll, seed"
            )
        if fields:
            raise FaultSpecError(
                f"unknown fields {sorted(fields)} in clause {clause!r}"
            )
    return FaultSpec(
        stragglers=tuple(stragglers),
        degrade=tuple(degrade),
        jitter_amp=jitter_amp,
        spike_prob=spike_prob,
        spike_s=spike_s,
        poll=tuple(poll),
        seed=seed,
    )


def _per_rank(pairs, nprocs: int, neutral: float, combine) -> np.ndarray:
    out = np.full(nprocs, neutral)
    for rank, value in pairs:
        if rank == ALL_RANKS:
            for i in range(nprocs):
                out[i] = combine(out[i], value)
        elif rank < nprocs:
            out[rank] = combine(out[rank], value)
        # ranks beyond the job size are inert (a p=4 run with rank=7
        # faults simply has no rank 7), not an error: one spec can
        # drive a whole grid of job sizes.
    return out


@dataclass
class FaultModel:
    """Per-run fault state: resolved per-rank factors plus draw counters.

    One instance per :class:`~repro.simmpi.fabric.Fabric` — constructing
    a fresh engine resets the jitter/spike draw streams, which is what
    makes repeated runs identical.  The ``*_total`` attributes accumulate
    observability numbers the engine folds into an installed tracer.
    """

    spec: FaultSpec
    nprocs: int
    cpu_scale: np.ndarray = field(init=False)
    rate_scale: np.ndarray = field(init=False)
    poll_factor: np.ndarray = field(init=False)
    has_cpu_faults: bool = field(init=False)
    has_latency_faults: bool = field(init=False)
    has_poll_faults: bool = field(init=False)

    def __post_init__(self) -> None:
        p = self.nprocs
        self.cpu_scale = _per_rank(self.spec.stragglers, p, 1.0, max)
        self.rate_scale = _per_rank(self.spec.degrade, p, 1.0, min)
        self.poll_factor = _per_rank(self.spec.poll, p, 1.0, max)
        self.has_cpu_faults = bool((self.cpu_scale != 1.0).any())
        self.has_latency_faults = (
            self.spec.jitter_amp > 0.0
            or (self.spec.spike_prob > 0.0 and self.spec.spike_s > 0.0)
        )
        self.has_poll_faults = bool((self.poll_factor != 1.0).any())
        self._counters = np.zeros(p, dtype=np.int64)
        # observability accumulators
        self.latency_draws = 0
        self.extra_latency_s = 0.0
        self.spikes = 0
        self.tests_suppressed = 0

    # -- CPU ---------------------------------------------------------------

    def cpu_scale_of(self, rank: int) -> float:
        """Slowdown multiplier for CPU time charged on ``rank``."""
        return float(self.cpu_scale[rank])

    # -- progression --------------------------------------------------------

    def effective_tests(self, rank: int, ntests: int) -> int:
        """MPI_Test epochs that actually land in a segment on ``rank``.

        A poll-delay factor ``f`` models the process being descheduled
        between library entries: only every ``f``-th intended test
        happens (at least one survives, so progression never fully
        stops inside a segment that intended to progress).
        """
        if ntests <= 0:
            return ntests
        factor = float(self.poll_factor[rank])
        if factor <= 1.0:
            return ntests
        eff = max(1, int(ntests / factor))
        self.tests_suppressed += ntests - eff
        return eff

    # -- links ---------------------------------------------------------------

    def draw_extra_latency(self, rank: int) -> float:
        """Deterministic per-message extra latency on ``rank``'s sends."""
        c = int(self._counters[rank])
        self._counters[rank] = c + 1
        spec = self.spec
        extra = 0.0
        if spec.jitter_amp > 0.0:
            extra += spec.jitter_amp * _u01(spec.seed, rank, 2 * c)
        if spec.spike_prob > 0.0 and spec.spike_s > 0.0:
            if _u01(~spec.seed & _MASK, rank, 2 * c + 1) < spec.spike_prob:
                extra += spec.spike_s
                self.spikes += 1
        self.latency_draws += 1
        self.extra_latency_s += extra
        return extra

    def counters(self) -> dict[str, float]:
        """This run's totals by metrics-registry counter name (the
        engine publishes the nonzero ones at the end of the run)."""
        return {
            "faults_latency_draws_total": self.latency_draws,
            "faults_extra_latency_seconds_total": self.extra_latency_s,
            "faults_spikes_total": self.spikes,
            "faults_tests_suppressed_total": self.tests_suppressed,
        }


# ---------------------------------------------------------------------------
# ambient installation (one process-wide stack)
# ---------------------------------------------------------------------------

_STACK: list[FaultSpec] = []


def current_faults() -> FaultSpec | None:
    """The installed fault spec, or ``None`` (no faults — the default).

    An installed-but-empty spec also reads as ``None`` so that
    ``injected_faults("")`` scopes are true no-ops.
    """
    if not _STACK:
        return None
    spec = _STACK[-1]
    return spec if spec else None


def install_faults(spec: FaultSpec | str) -> FaultSpec:
    """Make ``spec`` the ambient fault model until :func:`uninstall_faults`."""
    if isinstance(spec, str):
        spec = parse_faults(spec)
    _STACK.append(spec)
    return spec


def uninstall_faults(spec: FaultSpec | None = None) -> None:
    """Pop the ambient spec (must be ``spec`` when one is given)."""
    if not _STACK:
        raise RuntimeError("no fault spec installed")
    if spec is not None and _STACK[-1] is not spec:
        raise RuntimeError("uninstall out of order: not the active fault spec")
    _STACK.pop()


@contextmanager
def injected_faults(spec: FaultSpec | str | None):
    """Scoped fault injection: every simulation constructed inside the
    block runs under ``spec`` (a :class:`FaultSpec` or grammar string;
    ``None``/empty means no faults).  Yields the parsed spec."""
    if spec is None:
        yield None
        return
    installed = install_faults(spec)
    try:
        yield installed
    finally:
        uninstall_faults(installed)
