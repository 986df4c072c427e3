"""Serve-plane chaos: a real ``repro serve`` process SIGKILLed mid-job
recovers on restart; SIGTERM drains gracefully (DESIGN.md §5.14).

These drive the CLI in subprocesses — the journal, the chaos hook, the
signal handlers, and the recovery path all under the exact process
lifecycle a supervisor would impose.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.dist.protocol import fetch_text
from repro.serve import wait_for_plan

BUDGET = 4
PLATFORM = "UMD-Cluster"
SRC = str(Path(__file__).resolve().parents[2] / "src")


def spawn_serve(root, extra_env=None, *extra_args):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update(extra_env or {})
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--root", str(root), "--budget", str(BUDGET), *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env,
    )
    line = proc.stdout.readline()
    assert "plan server listening on " in line, (
        f"no URL line from serve: {line!r} / {proc.stderr.read()!r}"
    )
    url = line.split("listening on ", 1)[1].split()[0]
    return proc, url


def close_pipes(proc) -> None:
    """Close a reaped server's stdout/stderr pipes."""
    proc.stdout.close()
    proc.stderr.close()


def post_plan(url: str, p: int, n: int) -> tuple[int, dict]:
    req = urllib.request.Request(
        f"{url}/plan",
        data=json.dumps({"platform": PLATFORM, "p": p, "n": n}).encode(),
        method="POST", headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def metric(text: str, name: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            total += float(line.rsplit(" ", 1)[1])
    return total


class TestKillAndRecover:
    def test_sigkilled_server_replays_job_with_zero_sims(self, tmp_path):
        """Acceptance: SIGKILL (self-inflicted, at the worst crash point
        — stores flushed, journal still says running), restart over the
        same root, and the client's original job id reaches DONE by
        replay with zero re-simulation."""
        root = tmp_path / "store"
        chaos = {"REPRO_SERVE_CHAOS": f"kill-once:job-@{tmp_path}"}
        proc, url = spawn_serve(root, chaos)
        job_id = None
        try:
            code, body = post_plan(url, 4, 32)
            assert code == 202
            job_id = body["job"]
            # the chaos hook SIGKILLs the whole process mid-job
            proc.wait(timeout=120)
            assert proc.returncode == -signal.SIGKILL
            assert (tmp_path / "serve-chaos-killed").exists()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            close_pipes(proc)

        # journal's last word for the job is non-terminal
        journal_text = (root / "jobs.journal.jsonl").read_text()
        last = json.loads(
            [ln for ln in journal_text.splitlines() if job_id in ln][-1]
        )
        assert last["state"] in ("queued", "running")

        # restart over the same root (sentinel latches the chaos off)
        proc2, url2 = spawn_serve(root, chaos)
        try:
            done = wait_for_plan(url2, job_id, timeout=120)
            assert done["state"] == "done"
            assert done["recovered"] is True
            assert done["plan"]["params"]
            text = fetch_text(url2, "/metrics")
            assert metric(text, "serve_jobs_recovered_total") >= 1
            assert metric(text, "sim_runs_total") == 0, (
                "recovery re-simulated evaluations the dead "
                "incarnation had already flushed"
            )
        finally:
            proc2.send_signal(signal.SIGTERM)
            proc2.wait(timeout=60)
            close_pipes(proc2)

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        root = tmp_path / "store"
        proc, url = spawn_serve(root)
        try:
            code, body = post_plan(url, 4, 32)
            assert code == 202
            wait_for_plan(url, body["job"], timeout=120)
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                out, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        assert proc.returncode == 0
        assert "drained cleanly" in err
        # the drained journal is all-terminal: nothing replays
        journal_text = (root / "jobs.journal.jsonl").read_text()
        states = {}
        for line in journal_text.splitlines():
            rec = json.loads(line)
            states[rec["job"]] = rec["state"]
        assert all(s in ("done", "failed") for s in states.values())

    def test_sigint_takes_the_same_graceful_path(self, tmp_path):
        proc, url = spawn_serve(tmp_path / "store")
        proc.send_signal(signal.SIGINT)
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
        assert proc.returncode == 0
        assert "draining" in err
