"""The fleet telemetry plane end to end (DESIGN.md §5.12).

Four layers, each pinned separately so failures localize:

* **cross-host trace merge** — per-host span records become one Chrome
  trace with a process group per worker host (pid per host, tid per
  rank, no (pid, tid) collisions) that round-trips through the export
  loader, so ``repro trace`` renders fleet traces like local ones;
* **coordinator endpoints** — ``GET /metrics`` serves parseable
  Prometheus text whose ``dist_*`` counters track the lease lifecycle,
  ``/status`` is enriched with lease ages / heartbeat lag / rate / ETA,
  and ``/complete`` absorbs worker metric deltas and spans (malformed
  telemetry is dropped, never allowed to reject the completion);
* **spawned fleet** — a real 2-worker subprocess run writes
  ``fleet_trace.json`` + ``fleet_metrics.prom`` under
  ``DistConfig.trace_dir`` with ``dist_completions_total`` equal to the
  grid's cell count;
* **``repro top``** — the dashboard polls, renders, and exits 0 when a
  previously reachable coordinator vanishes (fake fetchers: no sockets).
"""

import io
import json
from collections import Counter

import pytest

from repro.bench import clear_cache
from repro.bench.runner import cell_key, cell_to_dict, evaluate_cell
from repro.dist import Coordinator, DistConfig, GridJob, fetch_text
from repro.dist.protocol import call
from repro.errors import DistProtocolError
from repro.exec import ResultStore, evaluate_cells
from repro.obs import (
    TopDashboard,
    Tracer,
    export_fleet_chrome,
    fleet_chrome_events,
    load_trace,
    metric_total,
    parse_prometheus,
    render_top,
    tracing,
)
from repro.obs.registry import scoped_registry

SPANS_A = [
    {"track": "rank 0", "name": "fftx", "t0": 0.0, "t1": 1.0,
     "clock": "virtual"},
    {"track": "rank 1", "name": "ffty", "t0": 0.5, "t1": 2.0,
     "clock": "virtual", "attrs": {"tile": 3}},
    {"track": "pool", "name": "cell", "t0": 0.0, "t1": 2.5, "clock": "wall"},
]
SPANS_B = [
    {"track": "rank 0", "name": "fftx", "t0": 0.0, "t1": 0.8,
     "clock": "virtual"},
]


class TestFleetTraceMerge:
    def test_pid_per_host_tid_per_rank(self):
        events = fleet_chrome_events({"hostB": SPANS_B, "hostA": SPANS_A})
        procs = {e["pid"]: e["args"]["name"] for e in events
                 if e.get("name") == "process_name"}
        # sorted host order, starting at 10 (clear of local pids 1/2)
        assert procs == {10: "worker hostA", 11: "worker hostB"}
        threads = {(e["pid"], e["tid"]): e["args"]["name"] for e in events
                   if e.get("name") == "thread_name"}
        assert threads[(10, 0)] == "rank 0"
        assert threads[(10, 1)] == "rank 1"
        assert threads[(11, 0)] == "rank 0"
        assert threads[(10, 100_000 + 2)] == "pool"

    def test_no_pid_tid_collisions(self):
        events = fleet_chrome_events({"hostA": SPANS_A, "hostB": SPANS_B})
        named = [(e["pid"], e["tid"]) for e in events
                 if e.get("name") == "thread_name"]
        assert len(named) == len(set(named))
        # every span event lands on a declared (pid, tid) thread
        spans = [(e["pid"], e["tid"]) for e in events if e.get("ph") == "X"]
        assert set(spans) <= set(named)

    def test_round_trips_through_export_loader(self, tmp_path):
        path = tmp_path / "fleet.json"
        n = export_fleet_chrome(
            {"hostA": SPANS_A, "hostB": SPANS_B}, path,
            meta={"cells": 3},
        )
        assert n == len(fleet_chrome_events(
            {"hostA": SPANS_A, "hostB": SPANS_B}
        ))
        tracer = load_trace(path)
        assert tracer.meta["cells"] == 3
        assert len(tracer.spans) == len(SPANS_A) + len(SPANS_B)
        # track names survive, timestamps round-trip through µs
        ranks = [sp for sp in tracer.spans if sp.track == "rank 0"]
        assert {sp.t1 for sp in ranks} == {1.0, 0.8}
        attrs = [sp.attrs for sp in tracer.spans if sp.name == "ffty"]
        assert attrs == [{"tile": 3}]

    def test_missing_parent_dirs_created(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "fleet.json"
        export_fleet_chrome({"h": SPANS_B}, path)
        assert path.exists()


@pytest.fixture
def coordinator():
    """A started coordinator over one real (4, 32) cell, plus that
    cell's evaluated payload; metrics scoped so tests never pollute the
    process-global registry."""
    clear_cache()
    with scoped_registry() as reg:
        budget = 2
        key = cell_key("UMD-Cluster", 4, 32, budget)
        job = GridJob(platform="UMD-Cluster", todo=[key],
                      labels=["UMD-Cluster p4 N32"])
        coord = Coordinator(job, DistConfig())
        url = coord.start()
        cell = evaluate_cell("UMD-Cluster", 4, 32, budget)
        try:
            yield coord, url, cell, reg
        finally:
            coord.stop()
            clear_cache()


def complete_payload(cell, worker="w1", lease="", **extra) -> dict:
    return {
        "worker": worker, "lease": lease,
        "cells": [{"index": 0, "cell": cell_to_dict(cell),
                   "evals": ""}],
        **extra,
    }


class TestCoordinatorEndpoints:
    def test_metrics_exposition_tracks_lease_lifecycle(self, coordinator):
        coord, url, cell, _reg = coordinator
        text = fetch_text(url, "/metrics")
        assert "# TYPE dist_completions_total counter" in text
        start = parse_prometheus(text)
        assert start["dist_completions_total"] == 0
        assert start["dist_queue_pending"] == 1

        grant = call(url, "/lease", {"worker": "w1", "max_cells": 1})
        assert grant["cells"]
        mid = parse_prometheus(fetch_text(url, "/metrics"))
        assert mid["dist_leases_total"] == 1
        assert mid["dist_queue_leased"] == 1

        done = call(url, "/complete",
                    complete_payload(cell, lease=grant["lease"]))
        assert done["accepted"] == 1
        end = parse_prometheus(fetch_text(url, "/metrics"))
        assert end["dist_completions_total"] == 1
        assert end["dist_queue_done"] == 1
        assert end["dist_queue_pending"] == 0
        assert end["dist_uptime_seconds"] > 0

    def test_complete_merges_worker_metric_deltas(self, coordinator):
        coord, url, cell, reg = coordinator
        delta = {
            "pool_items_total": {
                "kind": "counter", "help": "",
                "samples": [[[["mode", "serial"]], 3]],
            },
            "pool_item_seconds": {
                "kind": "histogram", "help": "",
                "samples": [[[], [0.25, 0.5]]],
            },
        }
        call(url, "/complete",
             complete_payload(cell, host="hostA-1", metrics=delta))
        metrics = parse_prometheus(fetch_text(url, "/metrics"))
        assert metrics['pool_items_total{mode="serial"}'] == 3
        assert metrics["pool_item_seconds_count"] == 2
        assert reg.value("pool_items_total", mode="serial") == 3

    def test_malformed_telemetry_never_rejects_completion(self, coordinator):
        coord, url, cell, _reg = coordinator
        bad = {"x": {"kind": "exotic", "samples": [[[], 1]]}}
        done = call(url, "/complete",
                    complete_payload(cell, metrics=bad, spans="not-a-list"))
        assert done["accepted"] == 1
        metrics = parse_prometheus(fetch_text(url, "/metrics"))
        assert metrics["dist_telemetry_rejects_total"] == 1
        assert metrics["dist_completions_total"] == 1

    def test_status_is_enriched(self, coordinator):
        coord, url, cell, _reg = coordinator
        grant = call(url, "/lease", {"worker": "w1", "max_cells": 1})
        call(url, "/renew", {"worker": "w1", "lease": grant["lease"],
                             "done": 0, "total": 1, "label": "p4 N32"})
        status = call(url, "/status")
        assert status["lease_ages_s"] and status["lease_ages_s"][0] >= 0
        assert status["uptime_s"] > 0
        assert status["completion_rate_per_s"] == 0.0
        assert status["eta_s"] is None  # no completions yet: no rate
        assert status["workers"]["w1"]["lag_s"] >= 0
        assert status["workers"]["w1"]["label"] == "p4 N32"

        call(url, "/complete", complete_payload(cell, lease=grant["lease"]))
        status = call(url, "/status")
        assert status["completion_rate_per_s"] > 0
        assert status["eta_s"] == 0.0
        assert status["finished"]

    def test_spans_accumulate_into_fleet_trace(self, coordinator, tmp_path):
        coord, url, cell, _reg = coordinator
        call(url, "/complete",
             complete_payload(cell, host="hostA-1", spans=SPANS_A))
        out = coord.write_fleet_trace(tmp_path / "fleet")
        assert out["spans"] == len(SPANS_A)
        tracer = load_trace(out["trace"])
        assert len(tracer.spans) == len(SPANS_A)
        prom = parse_prometheus(
            (tmp_path / "fleet" / "fleet_metrics.prom").read_text()
        )
        assert prom["dist_completions_total"] == 1


class TestSpawnedFleetArtifacts:
    """One true end-to-end run: two worker subprocesses + trace_dir."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        clear_cache()
        yield
        clear_cache()

    def test_two_subprocess_workers_write_merged_artifacts(self, tmp_path):
        cells = [(4, 32), (8, 32), (4, 48)]
        with scoped_registry():
            cfg = DistConfig(workers="local,local", poll_s=0.05,
                             lease_ttl=15.0,
                             trace_dir=str(tmp_path / "fleet"))
            results = evaluate_cells(
                "UMD-Cluster", cells, max_evaluations=4,
                store=ResultStore(tmp_path / "store"),
                dispatch="dist", dist=cfg,
            )
        assert {(c.p, c.n) for c in results} == set(cells)

        prom_text = (tmp_path / "fleet" / "fleet_metrics.prom").read_text()
        metrics = parse_prometheus(prom_text)
        assert metrics["dist_completions_total"] == len(cells)
        assert metrics["dist_queue_done"] == len(cells)
        # worker deltas made it back: the fleet did real pool work
        assert metric_total(metrics, "pool_items_total") == len(cells)
        assert metric_total(metrics, "sim_runs_total") > 0

        payload = json.loads(
            (tmp_path / "fleet" / "fleet_trace.json").read_text()
        )
        procs = {e["pid"]: e["args"]["name"]
                 for e in payload["traceEvents"]
                 if e.get("name") == "process_name"}
        # one process group per worker host id, pids from 10 up; both
        # spawned workers are distinct hosts (hostname-pid) even on one
        # machine, though a fast fleet may finish before both lease
        assert procs
        assert sorted(procs) == list(range(10, 10 + len(procs)))
        assert all(name.startswith("worker ") for name in procs.values())
        # the workers' spans made it back: each cell's pool span and
        # its tuning loop's tune.eval spans, name for name what a local
        # traced grid of the same cells records
        fleet = Counter(e["name"] for e in payload["traceEvents"]
                        if e.get("ph") == "X")
        clear_cache()
        with scoped_registry(), tracing(Tracer(rank_spans=False)) as local:
            evaluate_cells("UMD-Cluster", cells, max_evaluations=4)
        assert fleet["tune.eval"] > 0
        assert fleet == Counter(s.name for s in local.spans)

        # the merged trace is a normal trace to the export loader
        tracer = load_trace(tmp_path / "fleet" / "fleet_trace.json")
        assert len(tracer.spans) == sum(fleet.values())


def make_dash(feed, **kw):
    """A TopDashboard over scripted (status, metrics_text) pairs; an
    Exception entry is raised from the status fetcher."""
    it = iter(feed)
    state = {}

    def fetch_status():
        state["current"] = next(it)
        if isinstance(state["current"], Exception):
            raise state["current"]
        return state["current"][0]

    def fetch_metrics():
        return state["current"][1]

    out = io.StringIO()
    dash = TopDashboard(
        "http://x:1", interval=0.0, stream=out, sleep=lambda s: None,
        fetch_status=fetch_status, fetch_metrics=fetch_metrics, **kw,
    )
    return dash, out


STATUS = {
    "total": 3, "done": 1, "failed": 0, "pending": 1, "leased": 1,
    "requeues": 2, "duplicates": 0, "lease_ages_s": [4.5],
    "uptime_s": 10.0, "completion_rate_per_s": 0.1, "eta_s": 20.0,
    "workers": {"w1": {"done": 1, "total": 2, "label": "p4 N32",
                       "lag_s": 0.3}},
    "finished": False,
}
METRICS_TEXT = (
    "dist_completions_total 1\n"
    "dist_workers_live 1\n"
    'sim_runs_total{backend="heap"} 5\n'
    'sim_runs_total{backend="list"} 7\n'
)


class TestTopDashboard:
    def test_renders_queue_workers_and_totals(self):
        lines = render_top("http://x:1", STATUS,
                           parse_prometheus(METRICS_TEXT))
        text = "\n".join(lines)
        assert "cells  : 1/3 done ( 33%) | 1 pending | 1 leased" in text
        assert "rate   : 0.10 cells/s | eta 20.0s" in text
        assert "leases : 1 active, oldest 4.5s | 2 requeued" in text
        assert "workers: 1 reporting, 1 live" in text
        assert "w1  1/2  lag 0.3s  p4 N32" in text
        assert "totals : 1 completions | 12 sim runs" in text

    def test_metric_total_sums_label_sets(self):
        metrics = parse_prometheus(METRICS_TEXT)
        assert metric_total(metrics, "sim_runs_total") == 12
        assert metric_total(metrics, "sim") is None

    def test_connected_then_gone_exits_clean(self):
        dash, out = make_dash([
            (STATUS, METRICS_TEXT),
            (STATUS, METRICS_TEXT),
            DistProtocolError("coordinator unreachable"),
        ])
        assert dash.run() == 0
        assert dash.polls == 2
        assert "grid finished" in out.getvalue()

    def test_never_connected_is_an_error(self, capsys):
        dash, _out = make_dash([DistProtocolError("unreachable")])
        assert dash.run() == 4
        assert "error" in capsys.readouterr().err

    def test_unparseable_metrics_is_an_error(self, capsys):
        dash, _out = make_dash([(STATUS, "bogus line without value\n")])
        assert dash.run() == 4
        assert "bad /metrics" in capsys.readouterr().err

    def test_poll_limit_stops_cleanly(self):
        dash, out = make_dash([(STATUS, METRICS_TEXT)] * 5, max_polls=2)
        assert dash.run() == 0
        assert dash.polls == 2
        assert out.getvalue().count("repro top —") == 2
