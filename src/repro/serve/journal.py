"""Per-root job journal: every job state transition, durable on disk.

The stores make tuning *results* durable (a restarted server answers
warm plans from disk), but before this module the job *pipeline* was
not: a crashed or SIGKILLed ``repro serve`` silently dropped every
queued and running tuning job, and the clients polling them got 404s
forever.  The journal closes that gap with a write-ahead log in the
same spirit as the :class:`~repro.tuning.evalstore.EvalStore` JSONL
idiom — append-only records, atomic single-``write`` lines, and a
tolerant loader that skips (and warns about) a half-written trailing
line from a killed writer instead of refusing to start.

One journal per server root (``<root>/jobs.journal.jsonl``), shared by
all tenants; the tenant rides in each record.  A record is::

    {"ts": ..., "job": "job-000003", "state": "queued", "inc": 0,
     "tenant": "teamA", "request": {...}, "error": ""}

``state`` is one of the :mod:`repro.serve.jobs` lifecycle states plus
``interrupted`` — the journal-only marker for an incarnation that was
cut short (crash, drain timeout, executor shutdown).  ``request`` is
carried on ``queued`` records so a replay can re-enqueue without any
other source of truth; ``inc`` counts incarnations of one job id
across restarts.

Recovery is last-record-wins per job id, which makes replay idempotent
by construction: records are append-ordered, so duplicated transitions
collapse, and a crash *during* replay leaves the re-enqueued ``queued``
record (or the prior active record) as the tail — the next start simply
replays again.  Jobs whose final record is ``queued``, ``running``, or
``interrupted`` are offered for re-enqueue; ``done``/``failed`` are
terminal (the stores hold their product).
"""

from __future__ import annotations

import json
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from ..util.persist import append_line, parse_jsonl
from .jobs import DONE, FAILED, QUEUED, RUNNING

#: journal-only state: this incarnation was cut short and (unless a
#: later record supersedes it) the job should be replayed on restart
INTERRUPTED = "interrupted"

#: every state a journal record may carry
JOURNAL_STATES = (QUEUED, RUNNING, DONE, FAILED, INTERRUPTED)

#: final-record states that make a job eligible for replay
REPLAY_STATES = (QUEUED, RUNNING, INTERRUPTED)


@dataclass
class JournalEntry:
    """The folded (last-record-wins) view of one job id."""

    job_id: str
    state: str
    tenant: str = ""
    request: dict = field(default_factory=dict)
    error: str = ""
    incarnation: int = 0

    @property
    def replayable(self) -> bool:
        """Whether this job was cut short and should be re-enqueued."""
        return self.state in REPLAY_STATES


def _checked(rec: dict) -> dict:
    """One journal record, or an error for a malformed one."""
    if not isinstance(rec, dict) or not isinstance(rec["job"], str):
        raise TypeError("malformed record")
    if rec["state"] not in JOURNAL_STATES:
        raise ValueError(f"unknown state {rec['state']!r}")
    return rec


class JobJournal:
    """Append-only JSONL write-ahead log of job state transitions.

    Appends are serialized by an internal lock and issued as one
    ``write`` of one newline-terminated line, then fsynced — a torn
    line can only be the file's tail (the SIGKILL case), which
    :meth:`load` skips with a warning.  Transitions are rare (a handful
    per job), so the fsync cost is irrelevant next to a tuning run.
    """

    def __init__(self, path: str | Path,
                 clock=time.time) -> None:
        self.path = Path(path)
        self._clock = clock
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def record(
        self,
        job_id: str,
        state: str,
        tenant: str = "",
        request: dict | None = None,
        error: str = "",
        incarnation: int = 0,
    ) -> None:
        """Append one transition record (atomic line, fsynced)."""
        if state not in JOURNAL_STATES:
            raise ValueError(f"unknown journal state {state!r}")
        rec: dict = {
            "ts": round(self._clock(), 6),
            "job": job_id,
            "state": state,
            "inc": incarnation,
        }
        if tenant:
            rec["tenant"] = tenant
        if request:
            rec["request"] = dict(request)
        if error:
            rec["error"] = error
        line = json.dumps(rec)
        with self._lock:
            append_line(self.path, line)

    # -- recovery ----------------------------------------------------------

    def load(self) -> dict[str, JournalEntry]:
        """Fold the journal into one last-record-wins entry per job id.

        Tolerant by the same contract as
        :meth:`~repro.tuning.evalstore.EvalStore.from_jsonl`: lines
        that do not parse (a half-written tail from a killed writer),
        records missing required fields, and records with unknown
        states are skipped — counted and warned about, never fatal.
        Unknown extra fields are ignored, so a journal written by a
        future schema still yields every record this schema understands.
        """
        entries: dict[str, JournalEntry] = {}
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return entries
        records, skipped = parse_jsonl(text, _checked)
        for rec in records:
            job_id, state = rec["job"], rec["state"]
            entry = entries.get(job_id)
            if entry is None:
                entry = entries[job_id] = JournalEntry(
                    job_id=job_id, state=state
                )
            entry.state = state
            try:
                entry.incarnation = max(
                    entry.incarnation, int(rec.get("inc", 0) or 0)
                )
            except (TypeError, ValueError):
                pass
            tenant = rec.get("tenant")
            if isinstance(tenant, str) and tenant:
                entry.tenant = tenant
            request = rec.get("request")
            if isinstance(request, dict) and request:
                entry.request = request
            error = rec.get("error")
            if isinstance(error, str) and error:
                entry.error = error
        if skipped:
            warnings.warn(
                f"job journal {self.path}: skipped {skipped} unreadable "
                f"record(s) (torn tail from a killed writer, or a foreign "
                f"schema); recovered {len(entries)} job(s) from the rest",
                RuntimeWarning,
                stacklevel=2,
            )
        return entries

    def replayable(self) -> list[JournalEntry]:
        """Jobs cut short by the previous incarnation, in job-id order
        (creation order — ids are zero-padded sequence numbers)."""
        return sorted(
            (e for e in self.load().values() if e.replayable),
            key=lambda e: e.job_id,
        )

    @staticmethod
    def max_seq(entries: dict[str, JournalEntry]) -> int:
        """Largest numeric suffix among ``job-NNNNNN`` ids (0 if none);
        a restarted server seeds its id sequence past this so fresh
        jobs never collide with journaled history."""
        best = 0
        for job_id in entries:
            _, _, tail = job_id.rpartition("-")
            try:
                best = max(best, int(tail))
            except ValueError:
                continue
        return best
