"""Trace exporters and loaders.

Two interchangeable on-disk formats:

* **Chrome trace-event JSON** (``.json``) — the ``{"traceEvents": [...]}``
  format Perfetto / ``chrome://tracing`` accept.  Spans become complete
  (``"ph": "X"``) events; virtual-time tracks (simulated ranks) and
  wall-time tracks (driver work) are kept in separate process groups so
  the two clock domains never share a timeline.
* **JSONL event log** (``.jsonl``) — one self-describing JSON object per
  line (``meta`` / ``span`` records).  Loss-free for this tracer's
  model and trivially greppable; ``repro trace`` replays it into the
  ASCII gantt.

Both carry the same metadata (:func:`trace_meta`): the tracer's
``meta``, its ``spans_dropped`` count and, when the export is given a
registry, that registry's snapshot under ``metrics`` (Chrome
``otherData``, the JSONL ``meta`` record).  Traces written before the
registry held every count have ``counter``/``histogram`` JSONL records
and a Chrome "run summary" instant event; the loaders skip both.

:func:`write_trace` dispatches on the file suffix; :func:`load_trace`
reads either format back into a :class:`~repro.obs.tracer.Tracer`.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .tracer import Span, Tracer, VIRTUAL, WALL

#: process ids for the two clock domains in the Chrome export
_PID_VIRTUAL = 1
_PID_WALL = 2

_RANK_TRACK = re.compile(r"^rank (\d+)$")


def emit_rank_spans(tracer: Tracer, traces, prefix: str = "rank") -> None:
    """Unify a simulated run's per-rank event timelines into the trace.

    ``traces`` is the engine's ``RankTrace`` list: each recorded
    ``(t0, t1, label)`` event becomes a virtual-time span on the rank's
    track, carrying the per-event attrs (tile index, byte counts) the
    instrumented pipeline attached.
    """
    for idx, tr in enumerate(traces):
        if tr.events is None:
            continue
        attrs = tr.attrs if tr.attrs is not None else [None] * len(tr.events)
        track = f"{prefix} {idx}"
        for (t0, t1, label), a in zip(tr.events, attrs):
            tracer.add_span(track, label, t0, t1, VIRTUAL, a)


# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------


def chrome_events(tracer: Tracer) -> list[dict]:
    """The trace as a Chrome ``traceEvents`` list (timestamps in µs)."""
    events: list[dict] = []
    tids: dict[tuple[int, str], int] = {}

    def tid_for(pid: int, track: str) -> int:
        key = (pid, track)
        if key not in tids:
            m = _RANK_TRACK.match(track)
            # rank tracks keep their rank id as tid so Perfetto sorts
            # them numerically; other tracks get ids past any sane rank.
            tid = int(m.group(1)) if m else 100_000 + len(tids)
            tids[key] = tid
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": track},
            })
        return tids[key]

    for pid, name in (
        (_PID_VIRTUAL, "simulation (virtual time)"),
        (_PID_WALL, "driver (wall time)"),
    ):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name},
        })

    for sp in tracer.spans:
        pid = _PID_VIRTUAL if sp.clock == VIRTUAL else _PID_WALL
        events.append({
            "name": sp.name,
            "cat": sp.clock,
            "ph": "X",
            "ts": sp.t0 * 1e6,
            "dur": max(sp.duration, 0.0) * 1e6,
            "pid": pid,
            "tid": tid_for(pid, sp.track),
            "args": sp.attrs,
        })
    return events


def _prepare(path: str | Path) -> Path:
    """Create a trace target's missing parent directories (a ``--trace``
    or ``--out`` path under a fresh run directory must just work)."""
    target = Path(path)
    if target.parent != Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    return target


def trace_meta(tracer: Tracer, registry=None) -> dict:
    """An export's metadata: the tracer's ``meta``, ``spans_dropped``
    and, with a :class:`~repro.obs.registry.MetricsRegistry`, its
    snapshot under ``metrics``."""
    meta = {**tracer.meta, "spans_dropped": tracer.dropped}
    if registry is not None:
        meta["metrics"] = registry.snapshot()
    return meta


def export_chrome(tracer: Tracer, path: str | Path, registry=None) -> int:
    """Write the Chrome trace-event JSON file; returns the event count."""
    events = chrome_events(tracer)
    payload = {"traceEvents": events, "displayTimeUnit": "ms",
               "otherData": trace_meta(tracer, registry)}
    _prepare(path).write_text(json.dumps(payload, indent=1))
    return len(events)


# ---------------------------------------------------------------------------
# JSONL event log
# ---------------------------------------------------------------------------


def export_jsonl(tracer: Tracer, path: str | Path, registry=None) -> int:
    """Write the JSONL event log; returns the record count."""
    lines = [json.dumps({"kind": "meta", **trace_meta(tracer, registry)})]
    for sp in tracer.spans:
        rec = {"kind": "span", "track": sp.track, "name": sp.name,
               "t0": sp.t0, "t1": sp.t1, "clock": sp.clock}
        if sp.attrs:
            rec["attrs"] = sp.attrs
        lines.append(json.dumps(rec))
    _prepare(path).write_text("\n".join(lines) + "\n")
    return len(lines)


def write_trace(tracer: Tracer, path: str | Path, registry=None) -> int:
    """Export by suffix: ``.jsonl`` → event log, anything else → Chrome
    trace JSON.  Returns the number of records written."""
    if str(path).endswith(".jsonl"):
        return export_jsonl(tracer, path, registry)
    return export_chrome(tracer, path, registry)


# ---------------------------------------------------------------------------
# span wire records + the cross-host fleet trace
# ---------------------------------------------------------------------------


def span_records(tracer: Tracer, start: int = 0) -> list[dict]:
    """Spans from index ``start`` on, as JSON-ready records — the
    payload a distributed worker attaches to ``/complete`` (``start``
    is the worker's already-shipped watermark, so back-to-back leases
    never re-ship or leak each other's spans)."""
    out = []
    for sp in tracer.spans[start:]:
        rec = {"track": sp.track, "name": sp.name, "t0": sp.t0,
               "t1": sp.t1, "clock": sp.clock}
        if sp.attrs:
            rec["attrs"] = sp.attrs
        out.append(rec)
    return out


def add_span_records(tracer: Tracer, records: list[dict],
                     offset: float = 0.0) -> None:
    """Inverse of :func:`span_records`: add the records to ``tracer``,
    shifting wall-clock spans by ``offset`` seconds (where the
    recording tracer's clock started on this tracer's clock)."""
    for rec in records:
        shift = offset if rec["clock"] == WALL else 0.0
        tracer.add_span(rec["track"], rec["name"], rec["t0"] + shift,
                        rec["t1"] + shift, rec["clock"], rec.get("attrs"))


def fleet_chrome_events(spans_by_host: dict[str, list[dict]]) -> list[dict]:
    """Merge per-host span records into one Chrome ``traceEvents`` list.

    Every worker host gets its own **process** (pid, in sorted host
    order starting at 10 — clear of the local exporter's virtual/wall
    pids), and each track within a host gets a tid: ``rank N`` tracks
    keep ``N`` so Perfetto sorts rank timelines numerically, everything
    else lands past any sane rank id.  The result loads with
    :func:`load_trace` (thread/process name metadata carries the track
    and host names), so ``repro trace`` renders it like any local trace.
    """
    events: list[dict] = []
    tids: dict[tuple[int, str], int] = {}
    for offset, host in enumerate(sorted(spans_by_host)):
        pid = 10 + offset
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"worker {host}"},
        })
        for rec in spans_by_host[host]:
            track = str(rec.get("track", "worker"))
            key = (pid, track)
            if key not in tids:
                m = _RANK_TRACK.match(track)
                tids[key] = (int(m.group(1)) if m
                             else 100_000 + len(tids))
                events.append({
                    "name": "thread_name", "ph": "M", "pid": pid,
                    "tid": tids[key], "args": {"name": track},
                })
            t0 = float(rec["t0"])
            t1 = float(rec.get("t1", t0))
            events.append({
                "name": str(rec.get("name", "?")),
                "cat": rec.get("clock", WALL),
                "ph": "X",
                "ts": t0 * 1e6,
                "dur": max(t1 - t0, 0.0) * 1e6,
                "pid": pid,
                "tid": tids[key],
                "args": dict(rec.get("attrs") or {}),
            })
    return events


def export_fleet_chrome(
    spans_by_host: dict[str, list[dict]],
    path: str | Path,
    meta: dict | None = None,
) -> int:
    """Write the merged fleet Chrome trace; returns the event count."""
    events = fleet_chrome_events(spans_by_host)
    payload = {"traceEvents": events, "displayTimeUnit": "ms",
               "otherData": dict(meta or {})}
    _prepare(path).write_text(json.dumps(payload, indent=1))
    return len(events)


# ---------------------------------------------------------------------------
# loaders (the `repro trace` replay path)
# ---------------------------------------------------------------------------


def _set_meta(tracer: Tracer, meta: dict) -> None:
    tracer.dropped = int(meta.pop("spans_dropped", 0))
    tracer.meta.update(meta)


def _load_jsonl(text: str) -> Tracer:
    tracer = Tracer()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            kind = rec.get("kind")
            if kind == "span":
                tracer.add_span(
                    rec["track"], rec["name"], rec["t0"], rec["t1"],
                    rec.get("clock", VIRTUAL), rec.get("attrs"),
                )
            elif kind == "meta":
                del rec["kind"]
                _set_meta(tracer, rec)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            # a crash mid-write leaves a truncated final record; a
            # corrupted middle line is the same failure to the reader —
            # either way, say where instead of spilling a traceback
            raise ValueError(
                f"truncated or malformed trace record at line {lineno}: "
                f"{line[:80]!r}"
            ) from exc
    return tracer


def _load_chrome(payload: dict) -> Tracer:
    tracer = Tracer()
    names: dict[tuple[int, int], str] = {}
    spans: list[tuple[int, int, Span]] = []
    try:
        _set_meta(tracer, dict(payload.get("otherData") or {}))
        events = payload.get("traceEvents", [])
        for ev in events:
            if ev.get("ph") == "M" and ev.get("name") == "thread_name":
                names[(ev["pid"], ev["tid"])] = ev["args"]["name"]
            elif ev.get("ph") == "X":
                clock = VIRTUAL if ev.get("cat") == VIRTUAL else WALL
                t0 = ev["ts"] / 1e6
                spans.append((ev["pid"], ev["tid"], Span(
                    "", ev["name"], t0, t0 + ev.get("dur", 0.0) / 1e6,
                    clock, dict(ev.get("args") or {}),
                )))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(
            f"malformed Chrome trace event: {exc!r}"
        ) from exc
    for pid, tid, sp in spans:
        sp.track = names.get((pid, tid), f"track {pid}:{tid}")
        tracer.add_span(sp.track, sp.name, sp.t0, sp.t1, sp.clock, sp.attrs)
    return tracer


def load_trace(path: str | Path) -> Tracer:
    """Read a saved trace (JSONL or Chrome JSON) back into a Tracer."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{") and '"traceEvents"' in stripped[:2000]:
        return _load_chrome(json.loads(text))
    return _load_jsonl(text)


def rank_timelines(tracer: Tracer) -> tuple[list[list[tuple[float, float, str]]], float]:
    """Rebuild per-rank event timelines from a trace's virtual spans.

    Returns ``(events_by_rank, total)`` ready for
    :func:`repro.report.render_traces`-style rendering; ranks with no
    spans get empty timelines, ``total`` is the latest span end (0.0
    when there are no rank spans at all).
    """
    by_rank: dict[int, list[tuple[float, float, str]]] = {}
    total = 0.0
    for sp in tracer.spans:
        m = _RANK_TRACK.match(sp.track)
        if m is None or sp.clock != VIRTUAL:
            continue
        by_rank.setdefault(int(m.group(1)), []).append((sp.t0, sp.t1, sp.name))
        total = max(total, sp.t1)
    if not by_rank:
        return [], 0.0
    nranks = max(by_rank) + 1
    return [by_rank.get(i, []) for i in range(nranks)], total
