"""Exporters and loaders: Chrome trace-event JSON, JSONL, and replay.

The acceptance bar for the Chrome format: ``--trace out.json`` on a run
yields a valid ``traceEvents`` payload whose simulated ranks appear as
separate tracks (pid/tid pairs) with ``"X"`` complete events for the
pipeline steps — loadable by Perfetto / ``chrome://tracing``.
"""

import json
from pathlib import Path

import pytest

from repro.core.api import run_case
from repro.core.params import ProblemShape
from repro.machine import UMD_CLUSTER
from repro.obs import (
    MetricsRegistry,
    Tracer,
    VIRTUAL,
    WALL,
    chrome_events,
    export_chrome,
    export_jsonl,
    load_trace,
    rank_timelines,
    tracing,
    write_trace,
)


@pytest.fixture(scope="module")
def traced_run():
    """One full traced pipeline run (module-scoped: the sim is slow-ish)."""
    tracer = Tracer(rank_spans=True, meta={"command": "test"})
    with tracing(tracer):
        result, _ = run_case("NEW", UMD_CLUSTER, ProblemShape(64, 64, 64, 4))
    return tracer, result


class TestChromeExport:
    def test_traceevents_structure(self, traced_run, tmp_path):
        tracer, _ = traced_run
        path = tmp_path / "trace.json"
        n = export_chrome(tracer, path)
        payload = json.loads(path.read_text())
        assert set(payload) >= {"traceEvents", "displayTimeUnit", "otherData"}
        assert payload["otherData"]["command"] == "test"
        assert len(payload["traceEvents"]) == n

    def test_ranks_are_tracks_with_pid_tid(self, traced_run):
        tracer, _ = traced_run
        events = chrome_events(tracer)
        meta = [e for e in events if e["ph"] == "M" and e["name"] == "thread_name"]
        rank_tids = {e["args"]["name"]: (e["pid"], e["tid"]) for e in meta
                     if e["args"]["name"].startswith("rank ")}
        # 4 simulated ranks -> 4 virtual-time tracks, tid == rank id
        assert rank_tids == {f"rank {i}": (1, i) for i in range(4)}

    def test_pipeline_steps_are_complete_events(self, traced_run):
        tracer, _ = traced_run
        events = chrome_events(tracer)
        xs = [e for e in events if e["ph"] == "X"]
        names = {e["name"] for e in xs}
        assert {"FFTy", "Pack", "Ialltoall", "Unpack", "FFTx"} <= names
        for e in xs:
            assert e["dur"] >= 0.0 and {"ts", "pid", "tid"} <= set(e)

    def test_step_attrs_survive(self, traced_run):
        tracer, _ = traced_run
        ffty = [e for e in chrome_events(tracer)
                if e["ph"] == "X" and e["name"] == "FFTy"]
        assert ffty and all(
            {"tile", "tz", "bytes"} <= set(e["args"]) for e in ffty
        )

    def test_clock_domains_split_by_pid(self, traced_run):
        tracer, _ = traced_run
        for e in chrome_events(tracer):
            if e["ph"] != "X":
                continue
            assert e["pid"] == (1 if e["cat"] == VIRTUAL else 2)

    def test_registry_snapshot_in_other_data(self, traced_run, tmp_path):
        tracer, _ = traced_run
        reg = MetricsRegistry()
        reg.inc("sim_handoffs_total", 5, backend="tasks")
        path = tmp_path / "trace.json"
        export_chrome(tracer, path, reg)
        payload = json.loads(path.read_text())
        assert payload["otherData"]["metrics"] == reg.snapshot()
        # counts live in the metadata only, never as trace events
        assert not [e for e in payload["traceEvents"] if e["ph"] == "I"]


class TestJsonlRoundTrip:
    def test_round_trip_preserves_everything(self, traced_run, tmp_path):
        tracer, _ = traced_run
        path = tmp_path / "trace.jsonl"
        n = export_jsonl(tracer, path)
        assert n == len(path.read_text().splitlines())
        back = load_trace(path)
        assert back.meta["command"] == "test"
        assert len(back.spans) == len(tracer.spans)
        assert back.dropped == tracer.dropped
        a, b = tracer.spans[0], back.spans[0]
        assert (a.track, a.name, a.t0, a.t1, a.clock, a.attrs) == \
               (b.track, b.name, b.t0, b.t1, b.clock, b.attrs)

    def test_chrome_load_recovers_spans(self, traced_run, tmp_path):
        tracer, _ = traced_run
        path = tmp_path / "trace.json"
        export_chrome(tracer, path)
        back = load_trace(path)
        assert len(back.spans) == len(tracer.spans)
        tracks = {sp.track for sp in back.spans}
        assert {f"rank {i}" for i in range(4)} <= tracks
        clocks = {sp.name: sp.clock for sp in back.spans}
        assert clocks["FFTy"] == VIRTUAL

    def test_registry_snapshot_round_trips(self, traced_run, tmp_path):
        tracer, _ = traced_run
        reg = MetricsRegistry()
        reg.inc("tune_evals_total", 4)
        reg.observe("pool_item_seconds", 0.25)
        for name in ("t.jsonl", "t.json"):
            write_trace(tracer, tmp_path / name, reg)
            assert load_trace(tmp_path / name).meta["metrics"] == \
                reg.snapshot()

    def test_write_trace_dispatches_on_suffix(self, traced_run, tmp_path):
        tracer, _ = traced_run
        write_trace(tracer, tmp_path / "t.jsonl")
        write_trace(tracer, tmp_path / "t.json")
        first = (tmp_path / "t.jsonl").read_text().splitlines()[0]
        assert json.loads(first)["kind"] == "meta"
        assert "traceEvents" in json.loads((tmp_path / "t.json").read_text())


class TestRankTimelines:
    def test_round_trip_matches_engine_events(self, traced_run, tmp_path):
        tracer, result = traced_run
        path = tmp_path / "t.jsonl"
        write_trace(tracer, path)
        events, total = rank_timelines(load_trace(path))
        assert len(events) == 4
        assert events == [t.events for t in result.sim.traces]
        assert total == pytest.approx(
            max(t1 for evs in events for _t0, t1, _l in evs)
        )

    def test_no_rank_spans(self):
        tr = Tracer()
        tr.add_span("tuning", "tune.eval", 0.0, 1.0, WALL)
        assert rank_timelines(tr) == ([], 0.0)

    def test_missing_rank_gets_empty_timeline(self):
        tr = Tracer()
        tr.add_span("rank 0", "FFTy", 0.0, 1.0, VIRTUAL)
        tr.add_span("rank 2", "FFTy", 0.0, 2.0, VIRTUAL)
        events, total = rank_timelines(tr)
        assert [len(e) for e in events] == [1, 0, 1]
        assert total == 2.0


def test_jsonl_loader_skips_blank_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(
        '{"kind": "meta", "command": "x"}\n\n'
        '{"kind": "span", "track": "rank 0", "name": "FFTy",'
        ' "t0": 0.0, "t1": 1.0}\n'
    )
    back = load_trace(path)
    assert len(back.spans) == 1 and back.meta["command"] == "x"


class TestDroppedSpans:
    def test_both_exports_report_spans_dropped(self, tmp_path):
        tr = Tracer(max_spans=2)
        for i in range(5):
            tr.add_span("t", f"s{i}", i, i + 1)
        export_chrome(tr, tmp_path / "t.json")
        other = json.loads((tmp_path / "t.json").read_text())["otherData"]
        assert other["spans_dropped"] == 3
        export_jsonl(tr, tmp_path / "t.jsonl")
        meta = json.loads((tmp_path / "t.jsonl").read_text().splitlines()[0])
        assert meta["spans_dropped"] == 3
        for name in ("t.json", "t.jsonl"):
            back = load_trace(tmp_path / name)
            assert back.dropped == 3
            assert "spans_dropped" not in back.meta


class TestLegacyTrace:
    """``legacy_trace.jsonl`` is a ``repro grid --trace`` capture from
    before the registry held every count: it has ``counter`` and
    ``histogram`` records, which the loader skips."""

    PATH = Path(__file__).with_name("legacy_trace.jsonl")

    def test_loads_spans_and_ignores_count_records(self):
        kinds = [json.loads(line)["kind"]
                 for line in self.PATH.read_text().splitlines()]
        assert {"counter", "histogram"} <= set(kinds)
        back = load_trace(self.PATH)
        assert len(back.spans) == kinds.count("span")
        assert {sp.track for sp in back.spans} == {"tuning", "pool"}
        assert back.meta["command"] == "grid"
        assert "metrics" not in back.meta
