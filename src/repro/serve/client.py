"""Tiny client for the plan server (stdlib only, like the rest).

Thin wrappers over :func:`repro.dist.protocol.call` so tests, the
bench harness, and scripts can ask a server for a plan without
hand-rolling HTTP::

    from repro.serve import request_plan, wait_for_plan

    code, body = request_plan(url, platform="BlueGene-P", p=64, n=256)
    if code == 202:                       # cold: a tuning job is running
        body = wait_for_plan(url, body["job"], timeout=600)
    params = body["plan"]["params"]
"""

from __future__ import annotations

import time

from ..dist.protocol import call
from ..errors import (
    DistProtocolError,
    DistUnreachableError,
    ItemTimeoutError,
)


def request_plan(
    base_url: str,
    platform: str,
    p: int,
    n: int,
    variant: str = "NEW",
    budget: int | None = None,
    faults: str = "",
    objective: str = "fft_time",
    tenant: str | None = None,
    token: str | None = None,
) -> tuple[int, dict]:
    """``POST /plan``; returns ``(status_code, body)``.

    200 = warm hit (body carries ``plan`` + ``provenance``); 202 = a
    tuning job was enqueued or joined (body carries ``job`` + ``poll``).
    4xx/5xx raise :class:`DistProtocolError` like every protocol call.
    """
    body: dict = {"platform": platform, "p": p, "n": n,
                  "variant": variant, "objective": objective}
    if budget is not None:
        body["budget"] = budget
    if faults:
        body["faults"] = faults
    if tenant is not None:
        body["tenant"] = tenant
    return call(base_url, "/plan", body, token=token, with_status=True)


def poll_plan(base_url: str, job_id: str,
              token: str | None = None) -> tuple[int, dict]:
    """``GET /plan/<id>``; returns ``(status_code, body)``."""
    return call(base_url, f"/plan/{job_id}", token=token, with_status=True)


def wait_for_plan(
    base_url: str,
    job_id: str,
    timeout: float = 600.0,
    poll_s: float = 0.25,
    token: str | None = None,
) -> dict:
    """Poll a job until its plan is ready; returns the plan body.

    The server holds each poll on an unfinished job open until the job
    finishes or its hold (``repro.serve.server.POLL_HOLD_S``) runs out,
    so a job that finishes during a poll is answered by that poll;
    ``poll_s`` is the gap between polls.

    Rides out server restarts: a poll that fails with
    :class:`DistUnreachableError` (connection refused while the server
    is down, 503 while it drains) is retried until the deadline — the
    job journal replays interrupted jobs under the *same* job id, so the
    handle this client is polling stays valid across the restart.  Only
    when the deadline expires does the transport error surface.

    Raises :class:`ItemTimeoutError` on timeout and
    :class:`DistProtocolError` if the job failed (the server's error
    message is carried through).
    """
    deadline = time.monotonic() + timeout
    state: str | None = None
    while True:
        try:
            _, body = poll_plan(base_url, job_id, token=token)
        except DistUnreachableError:
            if time.monotonic() >= deadline:
                raise
        else:
            state = body.get("state")
            if state == "done":
                return body
            if state == "failed":
                raise DistProtocolError(
                    f"tuning job {job_id} failed: {body.get('error', '?')}"
                )
            if time.monotonic() >= deadline:
                raise ItemTimeoutError(
                    f"plan job {job_id}",
                    f"still {state!r} after {timeout:.0f}s",
                )
        time.sleep(poll_s)
