"""Host-speed calibration for the benchmark's reported times.

The host's speed drifts by up to ~1.8x over seconds when other tenants
share its cores (measured on a 2-vCPU KVM guest of a Xeon Sapphire
Rapids host, where wall time and thread CPU time drift together, so CPU
time is no cure).  A plain wall-clock median then depends on how much
of a run fell into a fast phase.

So every reported time is *calibrated*: the runner times a fixed
reference right before each operation, and scales the operation's wall
time by ``nominal / reference time`` averaged over the two references
around it.  The unit stays ``ms``: one calibrated millisecond is a
millisecond on a host where the reference takes its nominal time.

The reference must drift the way the operation does, and no part of the
program may run in it, or a change to the program would move both:

* ``compute`` -- numpy FFTs and reductions on a constant array, for the
  workloads that compute on the runner's thread (``cells``, ``apps``).
* ``http`` -- JSON ``POST`` round trips from ``urllib`` to a stdlib
  ``ThreadingHTTPServer`` on loopback: the same stack, threads and
  socket calls as the plan server and its client, without their code.
  Plan reads and writes hand work between threads, and their drift
  follows it, not the compute reference's: over five serve_write runs
  through one slow phase, the quartile spread of their median op time
  was 16% raw, 7% calibrated by compute and 2.5% calibrated by http.

The serve workloads are not pinned to one CPU.  Pinned, the threads of a
serve operation queue behind each other whenever the host takes that
CPU away, which the reference's fewer hand-offs do not feel: over five
serve_write runs in a noisy hour the calibrated spread was 23% pinned
and 6% unpinned.  The compute workloads are pinned; see
``Workload.pin_cpu``.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

_FIELD = np.random.default_rng(0).standard_normal((16, 16, 16)) + 0j
#: round trips per ``http`` reference call
ROUND_TRIPS = 3


class Reference:
    """The ``compute`` reference; ``close`` releases what a reference holds."""

    #: nominal duration of one call, in ms
    nominal_ms = 1.0

    def __call__(self) -> float:
        """Run the reference once; returns its wall time in seconds."""
        t = time.perf_counter()
        for _ in range(10):
            np.fft.fftn(_FIELD)
            (_FIELD * _FIELD.conj()).real.sum()
        return time.perf_counter() - t

    def close(self) -> None:
        pass


class _Echo(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args) -> None:
        pass

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        raw = json.dumps({"echo": body}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)


class HttpReference(Reference):
    """The ``http`` reference: a loopback echo server and its client."""

    nominal_ms = 2.0

    def __init__(self) -> None:
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Echo)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="reference-http")
        self._thread.start()
        self._url = f"http://127.0.0.1:{self._server.server_address[1]}/echo"
        self._body = json.dumps({"platform": "reference", "p": 4, "n": 32}).encode()

    def __call__(self) -> float:
        t = time.perf_counter()
        for _ in range(ROUND_TRIPS):
            req = urllib.request.Request(self._url, data=self._body, method="POST",
                                         headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req, timeout=30) as resp:
                resp.read()
        return time.perf_counter() - t

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()


REFERENCES: dict[str, type[Reference]] = {"compute": Reference, "http": HttpReference}


def calibrated_ms(walls: list[float], refs: list[float], nominal_ms: float) -> list[float]:
    """Calibrated ms for each wall time; ``refs`` has one more entry than
    ``walls``: the reference before each operation and one after the last."""
    if len(refs) != len(walls) + 1:
        raise ValueError(f"{len(walls)} walls need {len(walls) + 1} references")
    return [
        wall * 2 * nominal_ms / (before + after)
        for wall, before, after in zip(walls, refs, refs[1:])
    ]
