"""JSON-over-HTTP wire helpers shared by coordinator and worker.

The protocol is deliberately tiny — five endpoints, JSON bodies, no
dependencies beyond the standard library — because the hard guarantees
(determinism, idempotent completion, lease expiry) live in
:mod:`repro.dist.queue` and the stores, not in the transport.

Transport: each thread keeps one :class:`http.client.HTTPConnection`
alive per server and sends every request on it, so a client pays the
TCP handshake and the server's handler-thread start once, not per
request.  A kept connection the server has since closed (restart,
``Connection: close`` after an error reply) is reopened once,
immediately; any other failure drops it and goes through the retry
policy of :func:`call`.  The connections of a thread are closed by
:func:`close_connections`, or by a finalizer once the thread has
exited.

Endpoints (all responses are JSON objects):

========  ======  ==============================================------
path      method  body -> response
========  ======  ==============================================------
/config   GET     -> grid descriptor: platform, faults key, eval-store
                  snapshot, per-cell (index, p, n, budget), lease_ttl,
                  batch
/lease    POST    {worker, max_cells} -> {lease, cells, finished}
/renew    POST    {worker, lease, done, total, label} -> {ok, finished}
/complete POST    {worker, lease, cells: [{index, cell, evals}],
                  wisdom, host, metrics, spans} -> {accepted, finished}
/fail     POST    {worker, lease, failures: [{index, label, cause,
                  attempts, timed_out}]} -> {accepted, finished}
/status   GET     -> queue counters, lease ages, per-worker heartbeat
                  lag, completion rate + ETA
/healthz  GET     -> liveness/readiness probe (no auth; 200 ready /
                  503 finished-or-draining); also on the plan server
/metrics  GET     -> Prometheus text exposition (fleet-wide registry:
                  coordinator counters + merged worker deltas); fetch
                  with :func:`fetch_text`, not :func:`call`
========  ======  ==============================================------

``/complete``'s ``host``/``metrics``/``spans`` fields are additive
telemetry (metric deltas and trace spans, see DESIGN.md §5.12): the
coordinator merges them when present and old workers that omit them
still speak the same protocol version.

Auth: when a server is started with a token (``DistConfig.token`` /
``ServeConfig.token``), every request must carry
``Authorization: Bearer <token>`` or be rejected with 401; both
:func:`call` and :func:`fetch_text` attach it via their ``token``
argument.  With no token configured the header is neither sent nor
checked — existing fleets keep working unchanged.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import urllib.parse
import weakref
from typing import Callable

from ..errors import DistProtocolError, DistUnreachableError
from ..obs.registry import count as _count_metric

#: bumped on incompatible wire changes; both sides check it
PROTOCOL_VERSION = 1

#: retry backoff shape: exponential with full-range cap, then jitter
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_S = 5.0

#: kept-alive connections per thread; past it the oldest is closed
MAX_KEPT_CONNECTIONS = 8

#: jitter source for retry backoff.  Module-level and *not* seeded from
#: anything deterministic on purpose: the whole point of jitter is that
#: a fleet of clients knocked over by one coordinator restart does not
#: come back in lockstep.  Tests monkeypatch this for determinism.
_jitter = random.Random()


def _backoff_delay(attempt: int, base: float) -> float:
    """Delay before retry ``attempt`` (0-based): exponential growth
    capped at :data:`MAX_BACKOFF_S`, scaled by a uniform jitter in
    ``[0.5, 1.0)`` so synchronized clients desynchronize."""
    raw = min(base * (BACKOFF_FACTOR ** attempt), MAX_BACKOFF_S)
    return raw * (0.5 + _jitter.random() * 0.5)


def encode(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def decode(raw: bytes) -> dict:
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise DistProtocolError(f"malformed JSON body: {exc}") from exc
    if not isinstance(obj, dict):
        raise DistProtocolError(
            f"expected a JSON object, got {type(obj).__name__}"
        )
    return obj


def _headers(token: str | None) -> dict[str, str]:
    """Request headers, with the bearer token when one is in play."""
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    return headers




def _close_all(conns: dict) -> None:
    for conn in conns.values():
        conn.close()
    conns.clear()


class _KeptConnections:
    """One thread's kept-alive connections by ``(scheme, host, port)``,
    oldest first.  A finalizer closes them once the thread has exited
    and its thread-local pool is collected, so their sockets are closed
    rather than garbage-collected."""

    def __init__(self) -> None:
        self.conns: dict[tuple, http.client.HTTPConnection] = {}
        weakref.finalize(self, _close_all, self.conns)


_local = threading.local()


def _connections() -> dict[tuple, http.client.HTTPConnection]:
    kept = getattr(_local, "kept", None)
    if kept is None:
        kept = _local.kept = _KeptConnections()
    return kept.conns


def close_connections() -> None:
    """Close the calling thread's kept-alive connections (the next
    request on this thread opens a fresh one)."""
    _close_all(_connections())


def _exchange(base_url: str, path: str, body: bytes | None,
              token: str | None, timeout: float) -> tuple[int, str, bytes]:
    """One request and its whole response on the calling thread's
    kept-alive connection to ``base_url``; GET when ``body`` is None.

    A reused connection the server has since closed fails with a
    :class:`ConnectionError` on first use; it is reopened once,
    immediately (not a retry).  Any other failure closes and drops the
    connection and propagates (:class:`OSError` or
    :class:`http.client.HTTPException`).
    """
    parts = urllib.parse.urlsplit(base_url)
    key = (parts.scheme, parts.hostname, parts.port)
    conns = _connections()
    conn = conns.pop(key, None)
    reused = conn is not None and conn.sock is not None
    if conn is None:
        cls = (http.client.HTTPSConnection if parts.scheme == "https"
               else http.client.HTTPConnection)
        conn = cls(parts.hostname, parts.port, timeout=timeout)
    conn.timeout = timeout
    if conn.sock is not None:
        conn.sock.settimeout(timeout)
    for may_reopen in (reused, False):
        try:
            conn.request("GET" if body is None else "POST",
                         parts.path.rstrip("/") + path, body=body,
                         headers=_headers(token))
            resp = conn.getresponse()
            raw = resp.read()
            break
        except ConnectionError:
            conn.close()  # the next request() opens a fresh socket
            if not may_reopen:
                raise
        except BaseException:
            conn.close()
            raise
    conns[key] = conn
    if len(conns) > MAX_KEPT_CONNECTIONS:
        conns.pop(next(iter(conns))).close()
    return resp.status, resp.reason, raw


def _request(base_url: str, path: str, body: bytes | None, timeout: float,
             retries: int, backoff_s: float, sleep: Callable[[float], None],
             token: str | None) -> tuple[int, bytes]:
    """``(status, body)`` of the first 2xx reply, retrying transport
    failures and 5xx with jittered backoff; a 4xx raises at once."""
    last: Exception | None = None
    for attempt in range(retries + 1):
        try:
            status, reason, raw = _exchange(base_url, path, body, token,
                                            timeout)
        except (OSError, http.client.HTTPException) as exc:
            last = exc
        else:
            if 200 <= status < 300:
                return status, raw
            try:
                reason = decode(raw).get("error", "") or reason
            except DistProtocolError:
                pass  # not a JSON error body: keep the status reason
            if status < 500:
                raise DistProtocolError(f"{path} rejected ({status}): {reason}")
            last = DistProtocolError(f"{path} answered {status}: {reason}")
        if attempt < retries:
            _count_metric("proto_retries_total",
                          help="Transport-level protocol retries.")
            sleep(_backoff_delay(attempt, backoff_s))
    url = base_url.rstrip("/") + path
    raise DistUnreachableError(
        f"coordinator unreachable at {url} after {retries + 1} attempt(s): {last}"
    ) from last


def fetch_text(
    base_url: str,
    path: str,
    timeout: float = 10.0,
    token: str | None = None,
    retries: int = 0,
    backoff_s: float = 0.2,
    sleep: Callable[[float], None] = time.sleep,
) -> str:
    """One GET for a plain-text endpoint (``/metrics``).

    ``retries`` defaults to 0: the usual callers are pollers
    (``repro top``, benchmark probes) that have their own cadence and
    treat a miss as "coordinator gone".  Callers that *do* want to ride
    out a restart blip pass ``retries > 0`` and get the same jittered
    exponential backoff as :func:`call` (transport failures and 5xx
    only; 4xx rejections raise immediately).
    """
    _, raw = _request(base_url, path, None, timeout, retries, backoff_s,
                      sleep, token)
    return raw.decode("utf-8")


def call(
    base_url: str,
    path: str,
    payload: dict | None = None,
    timeout: float = 10.0,
    retries: int = 3,
    backoff_s: float = 0.2,
    sleep: Callable[[float], None] = time.sleep,
    token: str | None = None,
    with_status: bool = False,
) -> dict:
    """One request against the coordinator; GET when ``payload`` is None.

    Transport-level failures (connection refused mid-restart, dropped
    sockets, 5xx) are retried with **jittered exponential backoff**
    (see :func:`_backoff_delay`) — the coordinator's endpoints are
    idempotent, so a retried request is always safe, and the jitter
    keeps a fleet of clients knocked over by one restart from
    stampeding back in lockstep.  Each retry is counted on the current
    metrics registry as ``proto_retries_total``; reopening a kept-alive
    connection the server had closed is not a retry.  Exhausting the
    budget raises :class:`~repro.errors.DistUnreachableError` (a
    :class:`~repro.errors.DistProtocolError` subclass); protocol-level
    rejections (4xx with a JSON ``error``) raise
    :class:`~repro.errors.DistProtocolError` immediately, no retry.

    With ``with_status=True`` returns ``(status_code, body)`` instead of
    just the body — the plan server distinguishes 200 (warm hit) from
    202 (job enqueued) and its clients need to see which they got.
    """
    body = None if payload is None else encode(payload)
    status, raw = _request(base_url, path, body, timeout, retries, backoff_s,
                           sleep, token)
    out = decode(raw)
    return (status, out) if with_status else out
