"""JobManager guards: O(1) counts, the shutdown race, the stuck-job
watchdog, and graceful drain (DESIGN.md §5.14)."""

import threading
import time

import pytest

from repro.serve.jobs import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobManager,
    JobsDraining,
)
from repro.serve.journal import JobJournal

KEY = ("UMD-Cluster", 4, 32, 4, "", "NEW", "fft_time")
REQ = {"platform": "UMD-Cluster", "p": 4, "n": 32}


def wait_until(predicate, timeout=5.0, poll=0.01):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(poll)


class TestCounts:
    def test_counts_track_transitions(self):
        release = threading.Event()
        mgr = JobManager(lambda job: release.wait(5.0), threads=1)
        try:
            job, created = mgr.submit(KEY, "default", REQ)
            assert created
            wait_until(lambda: mgr.counts()[RUNNING] == 1)
            assert mgr.counts() == {
                QUEUED: 0, RUNNING: 1, DONE: 0, FAILED: 0
            }
            release.set()
            wait_until(lambda: mgr.counts()[DONE] == 1)
            assert mgr.counts()[RUNNING] == 0
        finally:
            release.set()
            mgr.shutdown()

    def test_counts_stay_consistent_over_many_jobs(self):
        mgr = JobManager(lambda job: None, threads=2)
        try:
            for i in range(50):
                mgr.submit(KEY + (i,), "default", REQ)
            wait_until(lambda: mgr.counts()[DONE] == 50)
            counts = mgr.counts()
            assert sum(counts.values()) == 50
            assert counts == {QUEUED: 0, RUNNING: 0, DONE: 50, FAILED: 0}
            assert mgr.active() == []
        finally:
            mgr.shutdown()

    def test_failed_runner_counts_as_failed(self):
        def boom(job):
            raise ValueError("tuning exploded")

        mgr = JobManager(boom, threads=1)
        try:
            job, _ = mgr.submit(KEY, "default", REQ)
            wait_until(lambda: mgr.counts()[FAILED] == 1)
            assert job.state == FAILED
            assert "tuning exploded" in job.error
        finally:
            mgr.shutdown()


class TestLandedRecheck:
    def test_landed_work_creates_no_job(self):
        mgr = JobManager(lambda job: None, threads=1)
        try:
            assert mgr.submit(KEY, "default", REQ,
                              landed=lambda: True) == (None, False)
            assert mgr.counts() == {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
            job, created = mgr.submit(KEY, "default", REQ,
                                      landed=lambda: False)
            assert created and job is not None
        finally:
            mgr.shutdown()

    def test_active_job_is_joined_without_a_recheck(self):
        release = threading.Event()
        mgr = JobManager(lambda job: release.wait(5.0), threads=1)
        rechecks = []
        try:
            job, _ = mgr.submit(KEY, "default", REQ)
            again, created = mgr.submit(
                KEY, "default", REQ,
                landed=lambda: rechecks.append(1) or True,
            )
            assert again is job and not created
            assert rechecks == []
        finally:
            release.set()
            mgr.shutdown()


class TestShutdownRace:
    def test_submit_after_pool_shutdown_rolls_back_and_503s(self, tmp_path):
        """The race: a request thread passes the draining check, then the
        pool shuts down under it.  ``pool.submit`` raises RuntimeError;
        the manager must roll the job table back (key not leaked) and
        surface JobsDraining, and the journal must record the rejection
        as ``interrupted`` so nothing replays a ghost."""
        journal = JobJournal(tmp_path / "j.jsonl")
        mgr = JobManager(lambda job: None, threads=1, journal=journal)
        # shut the pool down *without* setting _draining — simulating the
        # narrow window where the flag is not yet visible to the submitter
        mgr._pool.shutdown(wait=True)
        with pytest.raises(JobsDraining, match="retry later"):
            mgr.submit(KEY, "default", REQ)
        assert mgr.counts() == {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        assert mgr.get("job-000001") is None
        assert mgr.active() == []
        entry = journal.load()["job-000001"]
        assert entry.state == "interrupted"
        assert "executor already shut down" in entry.error
        # the plan key was not leaked: a fresh manager over the same
        # table could accept the key again (no stale _active entry)
        assert KEY not in mgr._active

    def test_submit_while_draining_raises(self):
        mgr = JobManager(lambda job: None, threads=1)
        mgr.shutdown()
        with pytest.raises(JobsDraining):
            mgr.submit(KEY, "default", REQ)


class TestWatchdog:
    def test_stuck_job_is_failed_and_key_freed(self):
        release = threading.Event()
        timed_out = []
        mgr = JobManager(
            lambda job: release.wait(10.0),
            threads=1,
            job_timeout=0.2,
            on_timeout=timed_out.append,
        )
        try:
            job, _ = mgr.submit(KEY, "default", REQ)
            wait_until(lambda: job.state == FAILED, timeout=5.0)
            assert "watchdog" in job.error
            assert "--job-timeout 0.2" in job.error
            assert timed_out == [job]
            # the single-flight key is free: a resubmission creates a
            # *new* job instead of collapsing onto the zombie
            job2, created = mgr.submit(KEY, "default", REQ)
            assert created and job2.id != job.id
        finally:
            release.set()
            mgr.shutdown()

    def test_late_runner_success_cannot_resurrect_failed_job(self):
        release = threading.Event()
        mgr = JobManager(
            lambda job: release.wait(10.0), threads=1, job_timeout=0.2
        )
        try:
            job, _ = mgr.submit(KEY, "default", REQ)
            wait_until(lambda: job.state == FAILED, timeout=5.0)
            release.set()  # the abandoned runner now "succeeds"
            time.sleep(0.2)
            assert job.state == FAILED  # terminal states are sticky
            counts = mgr.counts()
            assert counts[FAILED] == 1 and counts[DONE] == 0
        finally:
            release.set()
            mgr.shutdown()

    def test_fast_jobs_never_trip_the_watchdog(self):
        mgr = JobManager(lambda job: None, threads=1, job_timeout=5.0)
        try:
            job, _ = mgr.submit(KEY, "default", REQ)
            wait_until(lambda: job.state == DONE)
            assert mgr.counts()[FAILED] == 0
        finally:
            mgr.shutdown()


class TestDrain:
    def test_drain_waits_for_active_jobs(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        release = threading.Event()
        mgr = JobManager(
            lambda job: release.wait(10.0), threads=1, journal=journal
        )
        job, _ = mgr.submit(KEY, "default", REQ)
        wait_until(lambda: job.state == RUNNING)
        releaser = threading.Timer(0.15, release.set)
        releaser.start()
        try:
            leftover = mgr.drain(timeout=5.0)
            assert leftover == []
            assert job.state == DONE
            assert journal.load()[job.id].state == DONE
            with pytest.raises(JobsDraining):
                mgr.submit(KEY + ("x",), "default", REQ)
        finally:
            releaser.cancel()
            release.set()

    def test_drain_timeout_journals_survivors_interrupted(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        release = threading.Event()
        mgr = JobManager(
            lambda job: release.wait(30.0), threads=1, journal=journal
        )
        try:
            stuck, _ = mgr.submit(KEY, "default", REQ)
            queued, _ = mgr.submit(KEY + ("b",), "default", REQ)
            wait_until(lambda: stuck.state == RUNNING)
            leftover = mgr.drain(timeout=0.2)
            assert {j.id for j in leftover} == {stuck.id, queued.id}
            entries = journal.load()
            for j in leftover:
                assert entries[j.id].state == "interrupted"
                assert "drain timeout" in entries[j.id].error
                assert entries[j.id].replayable
        finally:
            release.set()


class TestResubmit:
    def test_resubmit_recreates_under_original_id(self):
        mgr = JobManager(lambda job: None, threads=1)
        try:
            job = mgr.resubmit(KEY, "default", REQ,
                               job_id="job-000042", incarnation=2)
            assert job is not None and job.id == "job-000042"
            wait_until(lambda: job.state == DONE)
            snap = job.snapshot()
            assert snap["recovered"] is True
            assert snap["interrupted_incarnations"] == 2
            # fresh ids never collide with recovered history
            mgr.reserve_seq(42)
            fresh, _ = mgr.submit(KEY + ("c",), "default", REQ)
            assert fresh.id == "job-000043"
        finally:
            mgr.shutdown()

    def test_resubmit_refuses_live_id_or_owned_key(self):
        release = threading.Event()
        mgr = JobManager(lambda job: release.wait(5.0), threads=1)
        try:
            job, _ = mgr.submit(KEY, "default", REQ)
            assert mgr.resubmit(KEY + ("d",), "default", REQ,
                                job_id=job.id) is None
            assert mgr.resubmit(KEY, "default", REQ,
                                job_id="job-000099") is None
        finally:
            release.set()
            mgr.shutdown()
