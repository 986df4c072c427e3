"""The one cell store: a tuned cell (:class:`CellResult`, its JSON form
and :class:`ResultStore`), in memory and optionally on disk.

This module imports nothing from :mod:`repro.bench`, so the benchmark
runner builds the process store (``repro.bench.runner.PROCESS_STORE``,
a store with no directory) from it.  A directory store keeps one JSON
file per cell, named by the full key
(``<platform>__p<p>__n<n>__b<budget>.json``) and written with
:func:`~repro.util.persist.write_atomic` (temp file, then rename).
Concurrent writers of the *same* key are computing the same
deterministic value, so last-writer-wins is lossless, and readers never
observe a truncated file.

Thread safety (DESIGN.md §5.13): the plan server calls one store from
many handler threads, so the held cells and the hit/miss counters sit
behind an internal :class:`threading.Lock`.

Warm hits are served from memory.  A store keeps every cell it has
validated (on :meth:`ResultStore.get`) or written (on
:meth:`ResultStore.put`), with the signature (inode, size, mtime) its
file had then; a later ``get`` whose file still has that signature
returns the held cell after one ``stat``, without opening, reading or
parsing the file.  Disk stays the authority: a missing file is a miss,
a replaced or rewritten one is read and validated again, and
``cells()``, ``len()`` and other processes see only the files.  Holding
cells is safe because cells are pure functions of their keys.
"""

from __future__ import annotations

import hashlib
import json
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from ..core.params import TuningParams
from ..util.persist import CorruptStoreWarning, write_atomic


@dataclass
class CellResult:
    """One (platform, p, N) row of Table 2 with its tuning byproducts."""

    platform: str
    p: int
    n: int
    times: dict[str, float]           # variant -> tuned 3-D FFT seconds
    tuning_times: dict[str, float]    # variant -> Table 4 seconds
    params: dict[str, TuningParams]   # variant -> winning configuration
    evaluations: dict[str, int]       # variant -> tuning evaluations
    budget: int = 0                   # tuning budget the cell was built with
    #: variant -> overlap summary of the tuned full run
    #: (:func:`repro.obs.run_metrics`: overlap_efficiency_pct,
    #: exposed_comm_s, scheduler counters, ...)
    metrics: dict[str, dict] = field(default_factory=dict)
    #: canonical fault-spec key the cell was evaluated under ("" =
    #: fault-free); part of the store key, so faulty and fault-free
    #: results never alias
    faults: str = ""

    def speedup(self, variant: str) -> float:
        """Speedup of ``variant`` over the FFTW baseline (Figure 7)."""
        return self.times["FFTW"] / self.times[variant]

    def key(self) -> tuple[str, int, int, int, str]:
        """This cell's full store key."""
        return (self.platform, self.p, self.n, self.budget, self.faults)


def cell_to_dict(cell: CellResult) -> dict:
    """JSON-ready representation of one cell."""
    return {
        "platform": cell.platform,
        "p": cell.p,
        "n": cell.n,
        "budget": cell.budget,
        "faults": cell.faults,
        "times": cell.times,
        "tuning_times": cell.tuning_times,
        "evaluations": cell.evaluations,
        "params": {k: v.as_dict() for k, v in cell.params.items()},
        "metrics": cell.metrics,
    }


def cell_from_dict(item: dict) -> CellResult:
    """Inverse of :func:`cell_to_dict`."""
    return CellResult(
        platform=item["platform"],
        p=item["p"],
        n=item["n"],
        times=item["times"],
        tuning_times=item["tuning_times"],
        evaluations=item["evaluations"],
        params={k: TuningParams(**v) for k, v in item["params"].items()},
        budget=item["budget"],
        # pre-observability stores have no metrics section; an empty
        # dict keeps those cells loadable (summaries just omit them)
        metrics=item.get("metrics", {}),
        # pre-fault-injection stores were all fault-free
        faults=item.get("faults", ""),
    )


def _safe(token: str) -> str:
    return "".join(c if (c.isalnum() or c in "-.") else "-" for c in token)


def _signature(file: Path) -> tuple[int, int, int]:
    """What changes when a cell file is replaced or rewritten: every
    :meth:`ResultStore.put` renames a new inode into place."""
    st = file.stat()
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def _read(file: Path) -> CellResult | None:
    """The cell in ``file``, or ``None`` with a :class:`CorruptStoreWarning`
    when the file cannot be read or parsed (reported at the store
    method's caller)."""
    try:
        return cell_from_dict(json.loads(file.read_text()))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        warnings.warn(f"skipping corrupt result-store file {file.name}: {exc}",
                      CorruptStoreWarning, stacklevel=3)
        return None


class ResultStore:
    """Tuned cells in memory, backed by per-cell JSON files under ``root``.

    Safe to share across threads: disk writes are atomic per cell, and
    the held cells and the in-memory counters (``hits``/``misses``/
    ``puts`` — what the plan server reports as provenance) mutate only
    under the internal lock.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = None if root is None else Path(root)
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        #: cell key -> (file signature, cell) for every cell validated
        #: by :meth:`get` or written by :meth:`put` (signature ``None``
        #: in a store with no directory)
        self._memory: dict[tuple, tuple[tuple | None, CellResult]] = {}
        self.hits = 0
        self.misses = 0
        self.puts = 0

    def path_for(
        self, platform: str, p: int, n: int, budget: int, faults: str = ""
    ) -> Path:
        """File backing one cell key (directory stores only).

        Fault-injected cells get a ``__f<digest>`` suffix (a short hash
        of the canonical fault spec — specs are free-form text, file
        names are not), so they never shadow the fault-free cell.
        """
        stem = f"{_safe(platform)}__p{p}__n{n}__b{budget}"
        if faults:
            digest = hashlib.sha1(faults.encode()).hexdigest()[:10]
            stem += f"__f{digest}"
        return self.root / f"{stem}.json"

    def get(
        self, platform: str, p: int, n: int, budget: int, faults: str = ""
    ) -> CellResult | None:
        """Stored cell for the key, or ``None`` (missing or unreadable —
        a foreign/corrupt file is treated as a warned miss, never an
        error: the caller just recomputes the cell).

        A cell whose file still has the signature it had when this
        store last validated or wrote it is served from memory: one
        ``stat``, no open, read or parse.  A store with no directory
        answers from memory alone."""
        key = (platform, p, n, budget, faults)
        if self.root is None:
            with self._lock:
                held = self._memory.get(key)
            self._count(hit=held is not None)
            return None if held is None else held[1]
        file = self.path_for(*key)
        try:
            sig = _signature(file)
        except OSError:
            with self._lock:
                self._memory.pop(key, None)
            self._count(hit=False)
            return None
        with self._lock:
            held = self._memory.get(key)
        if held is not None and held[0] == sig:
            self._count(hit=True)
            return held[1]
        cell = _read(file)
        if cell is not None and cell.key() != key:
            warnings.warn(
                f"skipping result-store file {file.name}: name does not "
                f"match its contents (claims {cell.key()})",
                CorruptStoreWarning,
                stacklevel=2,
            )
            cell = None
        with self._lock:
            if cell is None:
                self._memory.pop(key, None)
            else:
                # the signature taken *before* the read: a file replaced
                # in between differs from it on the next get, and is read
                self._memory[key] = (sig, cell)
        self._count(hit=cell is not None)
        return cell

    def _count(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def cells(self) -> list[CellResult]:
        """Every readable cell in the store (corrupt files are skipped
        with a :class:`CorruptStoreWarning`), sorted by key."""
        if self.root is None:
            with self._lock:
                cells = [cell for _, cell in self._memory.values()]
        else:
            files = sorted(self.root.glob("*.json"))
            cells = [cell for cell in map(_read, files) if cell is not None]
        return sorted(cells, key=CellResult.key)

    def put(self, cell: CellResult) -> Path | None:
        """Store one cell, atomically on disk; returns its file path
        (``None`` in a store with no directory).

        Two handler threads storing the same cell each write their own
        temp file (:func:`~repro.util.persist.write_atomic`), and
        whichever rename lands last wins with a complete payload (the
        values are identical anyway — cells are pure functions of their
        keys)."""
        target = sig = None
        if self.root is not None:
            target = self.path_for(*cell.key())
            write_atomic(target, json.dumps(cell_to_dict(cell), indent=1))
            sig = _signature(target)
        with self._lock:
            self._memory[cell.key()] = (sig, cell)
            self.puts += 1
        return target

    def stats(self) -> dict:
        """Point-in-time counter snapshot (serve-layer provenance)."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "puts": self.puts}

    def clear(self) -> None:
        """Forget every held cell and zero the counters.  A directory
        store keeps its files: its next ``get`` reads them again."""
        with self._lock:
            self._memory.clear()
            self.hits = self.misses = self.puts = 0

    def __len__(self) -> int:
        if self.root is None:
            return len(self._memory)
        return sum(1 for _ in self.root.glob("*.json"))
