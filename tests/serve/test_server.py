"""The tuned-plan server: warm hits, single-flight cold misses, auth,
restarts (DESIGN.md §5.13).

The three acceptance properties from the PR-8 issue live here:

* a warm ``POST /plan`` answers tuned params with **zero simulations**
  (asserted against the server registry's ``sim_runs_total``, not just
  the provenance field);
* N concurrent identical cold requests collapse onto exactly one
  tuning job and every client ends up with byte-identical params;
* a restarted server over a warm store directory serves the plan
  without re-tuning anything.
"""

import json
import threading

import pytest

from repro.bench import clear_cache
from repro.dist.protocol import call, fetch_text
from repro.errors import DistProtocolError
from repro.obs.registry import MetricsRegistry, scoped_registry
from repro.serve.jobs import DONE
from repro.serve import (
    DEFAULT_TENANT,
    PlanServer,
    ServeConfig,
    poll_plan,
    request_plan,
    wait_for_plan,
)

BUDGET = 4
PLATFORM = "UMD-Cluster"


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def sim_runs(reg: MetricsRegistry) -> float:
    """Total simulated runs recorded in a registry (all backends)."""
    fam = reg.snapshot().get("sim_runs_total")
    if not fam:
        return 0.0
    return sum(value for _, value in fam["samples"])


def start_server(tmp_path, **kwargs):
    """A plan server over ``tmp_path/store`` with its own registry."""
    reg = MetricsRegistry()
    with scoped_registry(reg):
        srv = PlanServer(ServeConfig(
            root=str(tmp_path / "store"), default_budget=BUDGET, **kwargs
        ))
    url = srv.start()
    return srv, url, reg


class TestPlanLifecycle:
    def test_cold_miss_then_warm_hit(self, tmp_path):
        srv, url, reg = start_server(tmp_path)
        try:
            code, body = request_plan(url, PLATFORM, 4, 32)
            assert code == 202
            assert body["created"] is True
            assert body["poll"] == f"/plan/{body['job']}"
            done = wait_for_plan(url, body["job"], timeout=120)
            assert done["plan"]["params"]  # tuned params came through
            assert done["provenance"]["source"] == "job"

            code, warm = request_plan(url, PLATFORM, 4, 32)
            assert code == 200
            assert warm["provenance"]["source"] == "result-store"
            assert warm["provenance"]["simulations"] == 0
            assert warm["plan"]["params"] == done["plan"]["params"]
        finally:
            srv.stop()

    def test_variant_best_and_objectives(self, tmp_path):
        srv, url, reg = start_server(tmp_path)
        try:
            code, body = request_plan(url, PLATFORM, 4, 32)
            wait_for_plan(url, body["job"], timeout=120)
            _, best = request_plan(url, PLATFORM, 4, 32, variant="best")
            times = best["plan"]["times"]
            assert best["plan"]["variant"] == min(times, key=times.get)
            _, sp = request_plan(url, PLATFORM, 4, 32, variant="NEW",
                                 objective="speedup")
            assert sp["plan"]["objective"] == pytest.approx(
                times["FFTW"] / times["NEW"]
            )
        finally:
            srv.stop()

    def test_poll_unknown_job_is_404(self, tmp_path):
        srv, url, reg = start_server(tmp_path)
        try:
            with pytest.raises(DistProtocolError, match="404"):
                poll_plan(url, "job-999999")
        finally:
            srv.stop()

    def test_bad_requests_are_400(self, tmp_path):
        srv, url, reg = start_server(tmp_path)
        try:
            for body in (
                {"platform": "NoSuchMachine", "p": 4, "n": 32},
                {"platform": PLATFORM, "p": 4},                    # no n
                {"platform": PLATFORM, "p": -4, "n": 32},
                {"platform": PLATFORM, "p": 4, "n": 32,
                 "variant": "OLD"},
                {"platform": PLATFORM, "p": 4, "n": 32,
                 "faults": "straggler:nope"},
                {"platform": PLATFORM, "p": 4, "n": 32,
                 "tenant": "../escape"},
            ):
                with pytest.raises(DistProtocolError, match="400"):
                    call(url, "/plan", body)
            assert reg.value("serve_bad_requests_total") == 6
            # nothing was enqueued by any of them
            assert reg.value("serve_jobs_enqueued_total") == 0
        finally:
            srv.stop()

    def test_tenants_are_isolated(self, tmp_path):
        srv, url, reg = start_server(tmp_path)
        try:
            code, body = request_plan(url, PLATFORM, 4, 32, tenant="teamA")
            wait_for_plan(url, body["job"], timeout=120)
            code, _ = request_plan(url, PLATFORM, 4, 32, tenant="teamA")
            assert code == 200          # warm for teamA...
            code, body = request_plan(url, PLATFORM, 4, 32, tenant="teamB")
            assert code == 202          # ...still cold for teamB
            wait_for_plan(url, body["job"], timeout=120)
            status = call(url, "/status")
            assert set(status["tenants"]) == {"teamA", "teamB"}
            root = tmp_path / "store"
            assert (root / "teamA" / "results").is_dir()
            assert (root / "teamB" / "evals.jsonl").exists()
        finally:
            srv.stop()


class TestSingleFlight:
    def test_concurrent_identical_cold_requests_share_one_job(self, tmp_path):
        """Acceptance: ≥8 concurrent identical clients on a cold cell
        cost exactly one tuning job and all receive byte-identical
        params."""
        srv, url, reg = start_server(tmp_path)
        clients = 8
        barrier = threading.Barrier(clients)
        first: list[tuple[int, dict]] = [None] * clients

        def client(i: int) -> None:
            barrier.wait()
            first[i] = request_plan(url, PLATFORM, 4, 32)

        try:
            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(clients)
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            # Every miss shares one job handle and exactly one submission
            # created it.  A straggler client may legitimately land
            # *after* the job finished (the GIL-bound tuning run delays
            # handler threads) and see a 200 warm hit — that still costs
            # zero extra tuning, which is the property under test.
            misses = [body for code, body in first if code == 202]
            assert misses, "at least the first client must miss"
            job_ids = {body["job"] for body in misses}
            assert len(job_ids) == 1
            assert sum(1 for body in misses if body["created"]) == 1
            assert reg.value("serve_jobs_enqueued_total") == 1

            wait_for_plan(url, job_ids.pop(), timeout=120)
            # ...and the served plans are byte-identical
            payloads = set()
            for _ in range(clients):
                code, body = request_plan(url, PLATFORM, 4, 32)
                assert code == 200
                payloads.add(json.dumps(body["plan"], sort_keys=True))
            assert len(payloads) == 1
            assert reg.value("serve_jobs_completed_total") == 1
        finally:
            srv.stop()


    def test_straggler_after_the_job_freed_its_key_starts_no_job(
            self, tmp_path, monkeypatch):
        """The straggler race: a client's store lookup misses just
        before the job's write, and its submit lands just after the job
        freed its single-flight key.  The hook makes that client's first
        lookup miss after the job is done; the submit must re-check the
        store and answer the warm hit instead of starting a second job."""
        srv, url, reg = start_server(tmp_path)
        try:
            code, body = request_plan(url, PLATFORM, 4, 32)
            assert code == 202
            wait_for_plan(url, body["job"], timeout=120)
            results = srv.stores.get(DEFAULT_TENANT).results
            real_get = results.get
            lookups = []

            def lookup_before_the_put(*key):
                lookups.append(key)
                return None if len(lookups) == 1 else real_get(*key)

            monkeypatch.setattr(results, "get", lookup_before_the_put)
            code, body = srv.handle_plan(
                {"platform": PLATFORM, "p": 4, "n": 32}
            )
            assert code == 200
            assert body["provenance"]["source"] == "result-store"
            assert len(lookups) == 2
            assert reg.value("serve_jobs_enqueued_total") == 1
            assert reg.value("serve_plan_hits_total") == 1
            assert srv.jobs.counts()[DONE] == 1
        finally:
            srv.stop()


class TestRestart:
    def test_restarted_server_serves_warm_store_with_zero_sims(
        self, tmp_path
    ):
        """Acceptance: kill the server, start a fresh one over the same
        store root (fresh registry, cleared memo = a new process), and
        the plan comes back with zero simulated runs."""
        srv, url, _ = start_server(tmp_path)
        try:
            code, body = request_plan(url, PLATFORM, 4, 32)
            tuned = wait_for_plan(url, body["job"], timeout=120)
        finally:
            srv.stop()

        clear_cache()  # a real restart has an empty in-process memo
        srv2, url2, reg2 = start_server(tmp_path)
        try:
            code, warm = request_plan(url2, PLATFORM, 4, 32)
            assert code == 200
            assert warm["plan"]["params"] == tuned["plan"]["params"]
            assert warm["provenance"]["simulations"] == 0
            assert sim_runs(reg2) == 0, (
                "restarted server re-simulated a warm cell"
            )
            assert reg2.value("serve_jobs_enqueued_total") == 0
        finally:
            srv2.stop()


class TestAuth:
    def test_missing_or_wrong_token_is_401(self, tmp_path):
        srv, url, reg = start_server(tmp_path, token="s3cret")
        try:
            with pytest.raises(DistProtocolError, match="401"):
                request_plan(url, PLATFORM, 4, 32)
            with pytest.raises(DistProtocolError, match="401"):
                request_plan(url, PLATFORM, 4, 32, token="wrong")
            with pytest.raises(DistProtocolError, match="401"):
                call(url, "/status")
            with pytest.raises(DistProtocolError, match="401"):
                fetch_text(url, "/metrics")
            assert reg.value("serve_auth_rejects_total") == 4
            # a rejected request never reaches stores or jobs
            assert reg.value("serve_jobs_enqueued_total") == 0
            assert call(url, "/status", token="s3cret")["jobs"]["done"] == 0
        finally:
            srv.stop()

    def test_auth_disabled_ignores_the_header(self, tmp_path):
        srv, url, reg = start_server(tmp_path, token=None)
        try:
            assert call(url, "/status")["tenants"] == []
            assert call(url, "/status", token="whatever")["tenants"] == []
            assert reg.value("serve_auth_rejects_total") == 0
        finally:
            srv.stop()


class TestObservability:
    def test_status_and_metrics_surfaces(self, tmp_path):
        srv, url, reg = start_server(tmp_path)
        try:
            code, body = request_plan(url, PLATFORM, 4, 32)
            wait_for_plan(url, body["job"], timeout=120)
            request_plan(url, PLATFORM, 4, 32)

            status = call(url, "/status")
            assert status["jobs"]["done"] == 1
            assert status["stores"]["default"]["cells"] == 1
            assert status["stores"]["default"]["eval_records"] > 0

            text = fetch_text(url, "/metrics")
            metrics = dict(
                line.rsplit(" ", 1)
                for line in text.splitlines()
                if line and not line.startswith("#")
            )
            assert float(metrics["serve_plan_hits_total"]) >= 1
            assert float(metrics["serve_plan_misses_total"]) == 1
            assert float(metrics["serve_jobs_completed_total"]) == 1
            assert float(metrics['serve_jobs{state="done"}']) == 1
            # the tuning job published its simulation counters into the
            # same registry, so ops see tuning cost at /metrics too
            assert any(k.startswith("sim_runs_total") for k in metrics)
        finally:
            srv.stop()

    def test_faulted_plan_is_keyed_separately(self, tmp_path):
        """A faults clause becomes part of the plan key: the faulty cell
        tunes independently and never shadows the fault-free cell."""
        srv, url, reg = start_server(tmp_path)
        try:
            code, body = request_plan(url, PLATFORM, 4, 32)
            wait_for_plan(url, body["job"], timeout=120)
            code, body = request_plan(
                url, PLATFORM, 4, 32, faults="straggler:rank=0,slow=2.0"
            )
            assert code == 202  # cold despite the fault-free cell
            done = wait_for_plan(url, body["job"], timeout=120)
            # the spec is stored in canonical form, not as typed
            assert done["plan"]["faults"] == "straggler:rank=0,slow=2"
            code, warm = request_plan(
                url, PLATFORM, 4, 32, faults="straggler:rank=0,slow=2.0"
            )
            assert code == 200
            # distinct store files for the two keys
            assert len(srv.stores.get().results) == 2
        finally:
            srv.stop()
