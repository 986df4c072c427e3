"""Shared persistent evaluation store — every timed configuration, once.

:class:`EvalStore` maps ``(platform, variant, shape, objective mode,
params)`` to the measured ``(objective, cost, executed)``: the
cross-strategy generalization of the paper's history-reuse technique
(Section 4.4, technique 2).  Nelder-Mead, coordinate descent, random
search, and exhaustive/grid sweeps all key their evaluations the same
way, so a configuration timed by any strategy — in any process, in any
past run — is a free hit for every other one, the way FFTW wisdom makes
planner work done anywhere reusable everywhere.

Persistence is JSONL replaced whole
(:func:`~repro.util.persist.write_atomic`): ``save`` merges with
whatever is on disk before writing, so concurrent grid workers and
interrupted runs can never truncate the store and never lose each
other's records.  Loading is tolerant
(:func:`~repro.util.persist.parse_jsonl`): unparseable lines (a partial
trailing line from a killed writer), records missing required fields,
and unknown extra fields are all skipped or ignored — a store written by
a future schema still yields every record this schema understands.

Keys are opaque strings (see :func:`eval_key`), so merging is a plain
dict union — first-wins per key, which is lossless because every value
is a deterministic pure function of its key (the simulator is
deterministic and the objective mode is part of the key).

Thread safety: every store is shared state the moment it is served —
the plan server (:mod:`repro.serve`) and the distributed coordinator
both read and mutate one store from ``ThreadingHTTPServer`` handler
threads.  All mutating and reading paths therefore hold an internal
:class:`threading.RLock` (re-entrant because ``save`` merges, and
``merge`` may be called under the lock), and same-process saves to one
path are additionally serialized by a per-path module lock — without
it two threads can each merge the *same* stale disk snapshot and the
losing rename's new records silently vanish.  Cross-process
concurrency stays what it always was: first-wins read-merge-replace.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path

from ..core.params import ProblemShape, TuningParams
from ..faults import current_faults
from ..util.persist import parse_jsonl, write_atomic

#: objective modes a record can be keyed under: ``tuned`` excludes the
#: parameter-independent FFTz/Transpose steps (technique 3, the tuning
#: objective), ``full`` is the end-to-end time (ablation sweeps).
MODE_TUNED = "tuned"
MODE_FULL = "full"


def eval_key(
    platform: str,
    variant: str,
    shape: ProblemShape,
    params: TuningParams,
    include_fixed_steps: bool = False,
) -> str:
    """Canonical key for one evaluation.

    The objective mode is part of the key because the same configuration
    has *different* objectives with and without the fixed steps; aliasing
    them would corrupt every consumer.  So is the ambient fault spec
    (:mod:`repro.faults`): a measurement taken on a degraded simulated
    machine must never answer a fault-free query, or vice versa.
    """
    mode = MODE_FULL if include_fixed_steps else MODE_TUNED
    cfg = ",".join(f"{k}={v}" for k, v in params.as_dict().items())
    key = (
        f"{platform}|{variant}|{shape.nx}x{shape.ny}x{shape.nz}"
        f"|p{shape.p}|{mode}|{cfg}"
    )
    spec = current_faults()
    if spec is not None:
        key += f"|faults={spec.key()}"
    return key


#: per-path locks serializing same-process :meth:`EvalStore.save` calls;
#: two stores saving the same file must not interleave their
#: read-merge-replace cycles (the lost-update race pinned by
#: ``tests/tuning/test_evalstore_threads.py``)
_SAVE_LOCKS: dict[str, threading.Lock] = {}
_SAVE_LOCKS_GUARD = threading.Lock()


def _save_lock(target: Path) -> threading.Lock:
    """The process-wide lock for saves to ``target`` (created on first
    use; keyed by the resolved path so spellings of one file alias)."""
    key = str(target.resolve())
    with _SAVE_LOCKS_GUARD:
        lock = _SAVE_LOCKS.get(key)
        if lock is None:
            lock = _SAVE_LOCKS[key] = threading.Lock()
        return lock


@dataclass(frozen=True)
class EvalRecord:
    """One stored measurement."""

    objective: float
    cost: float          # simulated seconds spent running the target
    executed: bool = True  # False would mark a derived/replayed record


def _record_from_json(item: dict) -> tuple[str, EvalRecord]:
    """``(key, record)`` from one JSONL record; raises on a malformed one."""
    key = item["key"]
    if not isinstance(key, str):
        raise TypeError(f"record key {key!r} is not a string")
    return key, EvalRecord(
        objective=float(item["objective"]),
        cost=float(item.get("cost", 0.0)),
        executed=bool(item.get("executed", True)),
    )


class EvalStore:
    """Merge-safe map from evaluation keys to :class:`EvalRecord`.

    Tracks which records were added after construction/loading
    (:meth:`new_jsonl`) so pool workers can ship *only their deltas*
    back to the parent, and counts hits/misses for reporting.

    All record/counter access holds :attr:`_lock` (re-entrant), so one
    store can be hammered by many HTTP handler threads without losing
    records, dropping new-record deltas, or skewing hit/miss counters.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._records: dict[str, EvalRecord] = {}
        self._new: set[str] = set()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._records

    @property
    def new_records(self) -> int:
        """Records added since this store was constructed or loaded."""
        with self._lock:
            return len(self._new)

    # -- queries ---------------------------------------------------------

    def get_key(self, key: str) -> EvalRecord | None:
        """Record for an exact key, or ``None`` (counts hit/miss)."""
        with self._lock:
            rec = self._records.get(key)
            if rec is None:
                self.misses += 1
            else:
                self.hits += 1
            return rec

    def add_hits(self, n: int) -> None:
        """Fold ``n`` externally counted hits in (worker-shipped hit
        counts; the read-modify-write must happen under the lock)."""
        with self._lock:
            self.hits += n

    def get(
        self,
        platform: str,
        variant: str,
        shape: ProblemShape,
        params: TuningParams,
        include_fixed_steps: bool = False,
    ) -> EvalRecord | None:
        """Stored measurement for a configuration, or ``None``."""
        return self.get_key(
            eval_key(platform, variant, shape, params, include_fixed_steps)
        )

    # -- updates ---------------------------------------------------------

    def put_key(self, key: str, record: EvalRecord) -> None:
        """Insert a record (first-wins: an existing key is kept)."""
        with self._lock:
            if key in self._records:
                return
            self._records[key] = record
            self._new.add(key)

    def put(
        self,
        platform: str,
        variant: str,
        shape: ProblemShape,
        params: TuningParams,
        objective: float,
        cost: float,
        executed: bool = True,
        include_fixed_steps: bool = False,
    ) -> None:
        """Store one measurement."""
        self.put_key(
            eval_key(platform, variant, shape, params, include_fixed_steps),
            EvalRecord(objective, cost, executed),
        )

    def merge(self, other: "EvalStore", mark_new: bool = True) -> int:
        """Union another store's records into this one (first-wins per
        key — lossless, values are pure functions of their keys).
        Returns the number of records actually added.  ``mark_new=False``
        folds records in without counting them as this store's own work
        (used when reconciling with a file another writer updated).

        Lock order: ``other``'s lock is taken only to copy its records,
        and released before this store's lock is acquired — the locks
        are never nested, so two stores merging each other from two
        threads cannot deadlock."""
        with other._lock:
            incoming = list(other._records.items())
        added = 0
        with self._lock:
            for key, rec in incoming:
                if key not in self._records:
                    self._records[key] = rec
                    if mark_new:
                        self._new.add(key)
                    added += 1
        return added

    def scope(
        self,
        platform: str,
        variant: str,
        shape: ProblemShape,
        include_fixed_steps: bool = False,
    ) -> "ScopedEvalStore":
        """Params-keyed view for one setting (what the tuning loop uses)."""
        return ScopedEvalStore(self, platform, variant, shape, include_fixed_steps)

    # -- persistence ------------------------------------------------------

    def to_jsonl(self, keys: set[str] | None = None) -> str:
        """Serialize (a subset of) the store, one record per line."""
        lines = []
        with self._lock:
            for key in sorted(self._records if keys is None else keys):
                rec = self._records[key]
                lines.append(json.dumps({
                    "key": key,
                    "objective": rec.objective,
                    "cost": rec.cost,
                    "executed": rec.executed,
                }))
        return "\n".join(lines) + ("\n" if lines else "")

    def new_jsonl(self) -> str:
        """Only the records added since construction (worker deltas)."""
        with self._lock:
            return self.to_jsonl(set(self._new))

    @classmethod
    def from_jsonl(cls, text: str) -> "EvalStore":
        """Rebuild a store from JSONL; skips lines that do not parse
        (e.g. a partial tail from an interrupted writer) and records
        missing required fields; ignores unknown extra fields.  Loaded
        records do not count as new."""
        store = cls()
        records, _skipped = parse_jsonl(text, _record_from_json)
        for key, rec in records:
            store._records.setdefault(key, rec)
        return store

    def save(self, path: str | Path) -> int:
        """Merge with the on-disk store and atomically replace it.

        Cross-process, read-merge-replace makes concurrent savers
        additive: whichever writer loses the rename race has
        already folded the other's records in (both read before
        writing), and a reader never observes a truncated file because
        the rename is atomic.  That argument fails *within* a process —
        two threads can both read the same stale snapshot before either
        replaces it, and the loser's new records vanish — so
        same-process saves to one path are serialized by a per-path
        lock: the second saver's read is guaranteed to see the first
        saver's file.  Returns the number of records written.
        """
        target = Path(path)
        with _save_lock(target):
            if target.exists():
                try:
                    self.merge(EvalStore.from_jsonl(target.read_text()),
                               mark_new=False)
                except OSError:
                    pass
            with self._lock:
                payload = self.to_jsonl()
                count = len(self._records)
            write_atomic(target, payload)
        return count

    @classmethod
    def load(cls, path: str | Path) -> "EvalStore":
        """Load a store; a missing or unreadable file yields an empty one."""
        file = Path(path)
        try:
            text = file.read_text()
        except OSError:
            return cls()
        return cls.from_jsonl(text)


class ScopedEvalStore:
    """One setting's view of an :class:`EvalStore`, keyed by params.

    This is the object the tuning loop and the search baselines hold: it
    pins ``(platform, variant, shape, objective mode)`` so call sites
    deal only in :class:`~repro.core.params.TuningParams`.
    """

    def __init__(
        self,
        store: EvalStore,
        platform: str,
        variant: str,
        shape: ProblemShape,
        include_fixed_steps: bool = False,
    ) -> None:
        self.store = store
        self.platform = platform
        self.variant = variant
        self.shape = shape
        self.include_fixed_steps = include_fixed_steps

    def get(self, params: TuningParams) -> EvalRecord | None:
        """Stored measurement for a configuration, or ``None``."""
        return self.store.get(
            self.platform, self.variant, self.shape, params,
            self.include_fixed_steps,
        )

    def put(
        self, params: TuningParams, objective: float, cost: float,
        executed: bool = True,
    ) -> None:
        """Store one measurement under this scope's setting."""
        self.store.put(
            self.platform, self.variant, self.shape, params,
            objective, cost, executed, self.include_fixed_steps,
        )
