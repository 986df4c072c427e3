"""Process-wide metrics registry with Prometheus text exposition.

The telemetry-plane substrate (DESIGN.md §5.12): one
:class:`MetricsRegistry` holds labeled **counters** (monotonic totals),
**gauges** (last-write-wins levels), and **histograms** (raw value
samples, exposed as Prometheus summaries).  It is the only place a
count or a sample lives; the tracer keeps spans only.  The instrumented
layers — the engine scheduler and fault model, the tuning loop, the
process pool, the distributed coordinator and workers — publish into
:func:`current_registry` through the module-level :func:`count` /
:func:`observe` / :func:`set_gauge` helpers (and the engine through
:func:`publish_sched_stats`), which are no-ops when metrics are
disabled (``REPRO_METRICS=0``).

Three operations make registries composable across processes and hosts,
with the same discipline as the eval store's merge (first-wins where a
key can only have one honest value, input-order everywhere else):

* :meth:`MetricsRegistry.snapshot` — a JSON-ready copy of every family;
* :meth:`MetricsRegistry.delta` — what happened *since* a snapshot
  (counter increments, new histogram observations, current gauge
  values), the payload a distributed worker ships with ``/complete``;
* :meth:`MetricsRegistry.merge` — fold a snapshot/delta in: counter and
  histogram samples **accumulate** (deltas are additive by
  construction, so arrival order cannot change the totals), gauges are
  **first-wins** (a merged worker gauge never overwrites one the
  coordinator set itself).

Scoping: the registry install stack is **thread-local** (unlike the
tracer's), because a coordinator thread and in-process worker threads
must publish to *different* registries inside one process; each falls
back to the shared process-global registry when its stack is empty.
Grid runs (:func:`repro.exec.evaluate_cells`) push a fresh registry for
the duration of the run unless the caller installed one — so
back-to-back runs never leak counts into each other or the global
registry (the reset-safety contract, pinned by
``tests/obs/test_registry.py``).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

#: metric family kinds
COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: disables all publishing helpers when "0" (overhead measurement and
#: emergency escape hatch; flipped at runtime by :func:`set_enabled`)
_ENABLED = os.environ.get("REPRO_METRICS", "1") != "0"


def metrics_enabled() -> bool:
    """Whether the publishing helpers are live (``REPRO_METRICS`` gate)."""
    return _ENABLED


def set_enabled(on: bool) -> bool:
    """Flip the publishing gate at runtime; returns the previous state
    (benchmarks measure the registry's overhead by toggling this)."""
    global _ENABLED
    prev = _ENABLED
    _ENABLED = bool(on)
    return prev


class _Family:
    """One named metric family: a kind, a help line, and its samples.

    ``samples`` maps a tuple of ``(label_name, label_value)`` pairs
    (sorted by name, so label order at the call site never matters) to
    a float (counter/gauge) or a list of floats (histogram).
    """

    __slots__ = ("name", "kind", "help", "samples")

    def __init__(self, name: str, kind: str, help: str = "") -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.samples: dict[tuple, float | list] = {}


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Thread-safe collector of metric families (see module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    # -- family access -------------------------------------------------------

    def _family(self, name: str, kind: str, help: str) -> _Family:
        fam = self._families.get(name)
        if fam is None:
            fam = self._families[name] = _Family(name, kind, help)
        elif fam.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {fam.kind}, not a {kind}"
            )
        if help and not fam.help:
            fam.help = help
        return fam

    # -- writes --------------------------------------------------------------

    def inc(self, name: str, n: float = 1, help: str = "", **labels) -> None:
        """Add ``n`` to the named counter (creates it at 0 first)."""
        key = _label_key(labels)
        with self._lock:
            fam = self._family(name, COUNTER, help)
            fam.samples[key] = float(fam.samples.get(key, 0.0)) + n

    def set(self, name: str, value: float, help: str = "", **labels) -> None:
        """Set the named gauge (last write wins within a process)."""
        key = _label_key(labels)
        with self._lock:
            fam = self._family(name, GAUGE, help)
            fam.samples[key] = float(value)

    def observe(self, name: str, value: float, help: str = "",
                **labels) -> None:
        """Record one sample into the named histogram."""
        key = _label_key(labels)
        with self._lock:
            fam = self._family(name, HISTOGRAM, help)
            fam.samples.setdefault(key, []).append(float(value))

    # -- reads ---------------------------------------------------------------

    def value(self, name: str, **labels) -> float | list | None:
        """The sample for ``name``/``labels`` (None when absent);
        histograms return a copy of their observation list."""
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                return None
            sample = fam.samples.get(_label_key(labels))
            return list(sample) if isinstance(sample, list) else sample

    def total(self, name: str) -> float:
        """A counter or gauge family's samples summed over every label
        set (0.0 when the family is absent)."""
        with self._lock:
            fam = self._families.get(name)
            return sum(fam.samples.values()) if fam is not None else 0.0

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._families)

    # -- snapshot / delta / merge -------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready copy of every family:
        ``{name: {kind, help, samples: [[[k, v], ...], value], ...}}``."""
        out: dict = {}
        with self._lock:
            for name, fam in self._families.items():
                out[name] = {
                    "kind": fam.kind,
                    "help": fam.help,
                    "samples": [
                        [[list(pair) for pair in key],
                         list(v) if isinstance(v, list) else v]
                        for key, v in fam.samples.items()
                    ],
                }
        return out

    def delta(self, since: dict) -> dict:
        """What happened since ``since`` (an earlier :meth:`snapshot`):
        counter increments, histogram observations appended past the
        snapshot's count, and current gauge values.  Zero-change samples
        and empty families are dropped, so the wire payload stays small.
        """
        prev: dict[tuple[str, tuple], float | int] = {}
        for name, rec in since.items():
            for key_list, value in rec.get("samples", []):
                key = tuple(tuple(pair) for pair in key_list)
                prev[(name, key)] = (
                    len(value) if isinstance(value, list) else value
                )
        out: dict = {}
        with self._lock:
            for name, fam in self._families.items():
                samples = []
                for key, value in fam.samples.items():
                    base = prev.get((name, key), 0)
                    if isinstance(value, list):
                        fresh = value[int(base):]
                        if fresh:
                            samples.append(
                                [[list(p) for p in key], list(fresh)]
                            )
                    elif fam.kind == COUNTER:
                        d = value - float(base)
                        if d:
                            samples.append([[list(p) for p in key], d])
                    else:  # gauge: ship the current level
                        samples.append([[list(p) for p in key], value])
                if samples:
                    out[name] = {"kind": fam.kind, "help": fam.help,
                                 "samples": samples}
        return out

    def merge(self, payload: dict) -> int:
        """Fold a snapshot/delta in; returns the number of samples
        applied.  Counters and histograms accumulate (additive deltas —
        arrival order cannot change the totals); gauges are first-wins,
        so a merged worker gauge never overwrites a locally set one.
        Malformed families raise :class:`ValueError`.
        """
        applied = 0
        for name, rec in payload.items():
            kind = rec.get("kind", COUNTER)
            if kind not in (COUNTER, GAUGE, HISTOGRAM):
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
            help_ = str(rec.get("help", ""))
            for key_list, value in rec.get("samples", []):
                key = tuple(tuple(str(x) for x in pair)
                            for pair in key_list)
                with self._lock:
                    fam = self._family(name, kind, help_)
                    if kind == HISTOGRAM:
                        fam.samples.setdefault(key, []).extend(
                            float(v) for v in value
                        )
                    elif kind == COUNTER:
                        fam.samples[key] = (
                            float(fam.samples.get(key, 0.0)) + float(value)
                        )
                    elif key not in fam.samples:  # gauge: first-wins
                        fam.samples[key] = float(value)
                applied += 1
        return applied

    # -- Prometheus text exposition ------------------------------------------

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4).

        Families are sorted by name and samples by label values, so the
        rendering is deterministic (the ``/metrics`` golden test relies
        on it).  Histograms are exposed as summaries: ``{quantile="0.5"}``
        and ``{quantile="1"}`` sample lines plus ``_sum``/``_count``.
        """
        lines: list[str] = []
        with self._lock:
            families = sorted(self._families.items())
            for name, fam in families:
                if fam.help:
                    lines.append(f"# HELP {name} {fam.help}")
                kind = "summary" if fam.kind == HISTOGRAM else fam.kind
                lines.append(f"# TYPE {name} {kind}")
                for key in sorted(fam.samples):
                    value = fam.samples[key]
                    if fam.kind == HISTOGRAM:
                        values = sorted(value)
                        n = len(values)
                        q50 = values[n // 2] if n else 0.0
                        q100 = values[-1] if n else 0.0
                        lines.append(_sample_line(
                            name, key + (("quantile", "0.5"),), q50))
                        lines.append(_sample_line(
                            name, key + (("quantile", "1"),), q100))
                        lines.append(
                            _sample_line(f"{name}_sum", key, sum(values)))
                        lines.append(_sample_line(f"{name}_count", key, n))
                    else:
                        lines.append(_sample_line(name, key, value))
        return "\n".join(lines) + ("\n" if lines else "")


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    # integers render bare (Prometheus accepts either; bare reads better
    # in golden tests and `curl` output)
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _sample_line(name: str, key: tuple, value: float) -> str:
    if key:
        labels = ",".join(
            f'{k}="{_escape_label(v)}"' for k, v in key
        )
        return f"{name}{{{labels}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse Prometheus text exposition into ``{sample_name: value}``.

    The sample name keeps its label block verbatim
    (``dist_queue{state="pending"}`` -> 3.0).  Comment and blank lines
    are skipped; malformed sample lines raise :class:`ValueError` with
    their line number (`repro top` treats that as a protocol error).
    """
    out: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, value = line.rpartition(" ")
        if not sep or not name:
            raise ValueError(f"malformed metrics line {lineno}: {line!r}")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise ValueError(
                f"malformed metrics value on line {lineno}: {line!r}"
            ) from exc
    return out


# ---------------------------------------------------------------------------
# registry installation (thread-local stack over a process-global default)
# ---------------------------------------------------------------------------

_GLOBAL = MetricsRegistry()
_TLS = threading.local()


def _stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    return stack


def global_registry() -> MetricsRegistry:
    """The process-global fallback registry."""
    return _GLOBAL


def current_registry() -> MetricsRegistry:
    """This thread's installed registry, else the process-global one."""
    stack = _stack()
    return stack[-1] if stack else _GLOBAL


@contextmanager
def scoped_registry(registry: MetricsRegistry | None = None):
    """Install ``registry`` (a fresh one by default) on *this thread's*
    stack for the duration of the block and yield it."""
    reg = registry if registry is not None else MetricsRegistry()
    stack = _stack()
    stack.append(reg)
    try:
        yield reg
    finally:
        stack.pop()


@contextmanager
def run_registry():
    """The per-run scope :func:`repro.exec.evaluate_cells` uses: reuse
    the caller's installed registry when there is one (so tests and
    services can observe a run), otherwise push a fresh registry so
    back-to-back runs never accumulate into each other or into the
    process-global registry."""
    stack = _stack()
    if stack:
        yield stack[-1]
        return
    with scoped_registry() as reg:
        yield reg


# ---------------------------------------------------------------------------
# publishing helpers (the one-liners instrumented layers call)
# ---------------------------------------------------------------------------


def count(name: str, n: float = 1, help: str = "", **labels) -> None:
    """Increment a counter on the current registry (no-op when disabled)."""
    if _ENABLED:
        current_registry().inc(name, n, help, **labels)


def observe(name: str, value: float, help: str = "", **labels) -> None:
    """Observe a histogram sample on the current registry."""
    if _ENABLED:
        current_registry().observe(name, value, help, **labels)


def set_gauge(name: str, value: float, help: str = "", **labels) -> None:
    """Set a gauge on the current registry."""
    if _ENABLED:
        current_registry().set(name, value, help, **labels)


def publish_sched_stats(stats) -> None:
    """Publish one engine run's :class:`~repro.simmpi.engine.SchedStats`
    (called by the engine at the end of every simulated run)."""
    if not _ENABLED:
        return
    reg = current_registry()
    backend = stats.backend or "unknown"
    reg.inc("sim_runs_total", 1,
            "Simulated SPMD runs completed.", backend=backend)
    reg.inc("sim_handoffs_total", stats.handoffs,
            "Scheduler rank resumptions (token grants).", backend=backend)
    reg.inc("sim_probe_polls_total", stats.probe_polls,
            "Completion-probe invocations by the scheduler.",
            backend=backend)
    reg.inc("sim_wakeups_total", stats.wakeups,
            "Blocked-to-runnable rank transitions.", backend=backend)
