"""Transport retry with jittered exponential backoff, and the
coordinator's unauthenticated ``/healthz`` probe (DESIGN.md §5.14)."""

import json
import random
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.bench.runner import cell_key
from repro.dist import Coordinator, DistConfig, GridJob
from repro.dist import protocol
from repro.dist.protocol import MAX_BACKOFF_S, _backoff_delay, call, fetch_text
from repro.errors import DistProtocolError, DistUnreachableError
from repro.obs.registry import MetricsRegistry, scoped_registry
from repro.serve import PlanServer, ServeConfig


class FlakyServer:
    """Answers ``fail_first`` requests with 500, then 200 forever."""

    def __init__(self, fail_first: int, code: int = 500):
        self.requests = 0
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def _serve(self):
                outer.requests += 1
                if outer.requests <= fail_first:
                    body = json.dumps({"error": "mid-restart"}).encode()
                    self.send_response(code)
                else:
                    body = json.dumps({"ok": True}).encode()
                    self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            do_GET = do_POST = _serve

        self._srv = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._srv.serve_forever, daemon=True
        )
        self._thread.start()
        host, port = self._srv.server_address[:2]
        self.url = f"http://{host}:{port}"

    def stop(self):
        self._srv.shutdown()
        self._srv.server_close()


class TestBackoffShape:
    def test_delay_is_exponential_capped_and_jittered(self, monkeypatch):
        monkeypatch.setattr(protocol, "_jitter", random.Random(42))
        base = 0.2
        for attempt in range(10):
            raw = min(base * 2 ** attempt, MAX_BACKOFF_S)
            delay = _backoff_delay(attempt, base)
            assert raw * 0.5 <= delay < raw
        # deep attempts saturate at the cap (times jitter), not beyond
        assert _backoff_delay(50, base) < MAX_BACKOFF_S


class TestCallRetry:
    def test_transient_5xx_is_retried_and_counted(self):
        srv = FlakyServer(fail_first=2)
        reg = MetricsRegistry()
        delays = []
        try:
            with scoped_registry(reg):
                body = call(srv.url, "/status", retries=3,
                            backoff_s=0.01, sleep=delays.append)
            assert body == {"ok": True}
            assert srv.requests == 3
            assert reg.value("proto_retries_total") == 2
            assert len(delays) == 2
            # jittered exponential: each delay within its attempt's band
            for attempt, delay in enumerate(delays):
                raw = min(0.01 * 2 ** attempt, MAX_BACKOFF_S)
                assert raw * 0.5 <= delay < raw
        finally:
            srv.stop()

    def test_exhausted_retries_raise_unreachable(self):
        srv = FlakyServer(fail_first=99)
        delays = []
        try:
            with pytest.raises(DistUnreachableError, match="unreachable"):
                call(srv.url, "/status", retries=2,
                     backoff_s=0.01, sleep=delays.append)
            assert srv.requests == 3  # 1 try + 2 retries
            assert len(delays) == 2
        finally:
            srv.stop()

    def test_connection_refused_raises_unreachable(self):
        with pytest.raises(DistUnreachableError) as exc_info:
            call("http://127.0.0.1:1", "/status", retries=1,
                 backoff_s=0.01, sleep=lambda s: None)
        # subclasses DistProtocolError: existing handlers keep working
        assert isinstance(exc_info.value, DistProtocolError)

    def test_4xx_rejection_is_not_retried(self):
        srv = FlakyServer(fail_first=99, code=404)
        delays = []
        try:
            with pytest.raises(DistProtocolError, match="404"):
                call(srv.url, "/status", retries=5,
                     backoff_s=0.01, sleep=delays.append)
            assert srv.requests == 1
            assert delays == []
        finally:
            srv.stop()


    def test_restarted_server_is_reached_without_a_retry(self, tmp_path):
        """A kept-alive connection the stopped server closed is reopened
        once, at once, against its successor on the same port; that is
        not a retry."""
        srv = PlanServer(ServeConfig(root=str(tmp_path / "a")))
        url = srv.start()
        port = srv._server.server_address[1]
        reg = MetricsRegistry()
        delays = []
        try:
            with scoped_registry(reg):
                assert call(url, "/status", sleep=delays.append)
                srv.stop()
                srv = PlanServer(ServeConfig(root=str(tmp_path / "b"),
                                             port=port))
                assert srv.start() == url
                assert call(url, "/status", sleep=delays.append)
            assert delays == []
            assert reg.value("proto_retries_total") is None  # never counted
        finally:
            srv.stop()


class TestFetchTextRetry:
    def test_default_is_no_retry(self):
        srv = FlakyServer(fail_first=1)
        try:
            with pytest.raises(DistUnreachableError):
                fetch_text(srv.url, "/metrics")
            assert srv.requests == 1
        finally:
            srv.stop()

    def test_opt_in_retries_ride_out_the_blip(self):
        srv = FlakyServer(fail_first=2)
        reg = MetricsRegistry()
        try:
            with scoped_registry(reg):
                text = fetch_text(srv.url, "/metrics", retries=3,
                                  backoff_s=0.01, sleep=lambda s: None)
            assert json.loads(text) == {"ok": True}
            assert reg.value("proto_retries_total") == 2
        finally:
            srv.stop()


def healthz(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(f"{url}/healthz", timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestCoordinatorHealthz:
    def make_coord(self, token=None):
        todo = [cell_key("UMD-Cluster", 4, 32, 4)]
        job = GridJob(platform="UMD-Cluster", todo=todo,
                      labels=["UMD-Cluster p4 N32"])
        coord = Coordinator(job, DistConfig(token=token))
        url = coord.start()
        return coord, url

    def test_ready_while_working_unready_when_finished(self):
        coord, url = self.make_coord()
        try:
            code, body = healthz(url)
            assert code == 200
            assert body["live"] is True and body["ready"] is True
            # finish the grid: readiness flips, liveness stays
            coord.queue.lease("w", 1)
            coord.queue.complete(0)
            code, body = healthz(url)
            assert code == 503
            assert body["live"] is True and body["ready"] is False
            assert body["finished"] is True
        finally:
            coord.stop()

    def test_healthz_skips_the_auth_gate(self):
        coord, url = self.make_coord(token="s3cret")
        try:
            code, body = healthz(url)  # no bearer token sent
            assert code == 200 and body["live"] is True
            # every other route still enforces auth
            with pytest.raises(DistProtocolError, match="401"):
                call(url, "/status")
        finally:
            coord.stop()
