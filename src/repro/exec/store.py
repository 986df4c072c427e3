"""Concurrency-safe on-disk result store for grid experiments.

One JSON file per cell, named by the full cache key
(``<platform>__p<p>__n<n>__b<budget>.json``), written with
:func:`~repro.util.persist.write_atomic` (temp file, then rename).
Concurrent writers of the *same* key are computing the same
deterministic value, so last-writer-wins is lossless, and readers never
observe a truncated file.  Unlike :func:`repro.bench.runner.save_cache`
(one file for the whole memo), per-key files let parallel workers and
even separate benchmark invocations share results without coordination.

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
from pathlib import Path

from ..bench.runner import CellResult, cell_from_dict, cell_to_dict
from ..util.persist import CorruptStoreWarning, write_atomic


def _safe(token: str) -> str:
    return "".join(c if (c.isalnum() or c in "-.") else "-" for c in token)


def _signature(file: Path) -> tuple[int, int, int]:
    """What changes when a cell file is replaced or rewritten: every
    :meth:`ResultStore.put` renames a new inode into place."""
    st = file.stat()
    return (st.st_ino, st.st_size, st.st_mtime_ns)


class ResultStore:
    """Directory of per-cell JSON results.

    Safe to share across threads: disk writes are atomic per cell, and
    the held cells and the in-memory counters (``hits``/``misses``/
    ``puts`` — what the plan server reports as provenance) mutate only
    under the internal lock.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        #: cell key -> (file signature, cell) for every cell validated
        #: by :meth:`get` or written by :meth:`put`
        self._memory: dict[tuple, tuple[tuple, CellResult]] = {}
        self.hits = 0
        self.misses = 0
        self.puts = 0

    def path_for(
        self, platform: str, p: int, n: int, budget: int, faults: str = ""
    ) -> Path:
        """File backing one cell key.

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
        ``stat``, no open, read or parse."""
        key = (platform, p, n, budget, faults)
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
        try:
            item = json.loads(file.read_text())
            cell = cell_from_dict(item)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            warnings.warn(
                f"skipping corrupt result-store file {file.name}: {exc}",
                CorruptStoreWarning,
                stacklevel=2,
            )
            cell = None
        else:
            if cell.key() != key:
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
        out: list[CellResult] = []
        for file in sorted(self.root.glob("*.json")):
            try:
                out.append(cell_from_dict(json.loads(file.read_text())))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                warnings.warn(
                    f"skipping corrupt result-store file {file.name}: {exc}",
                    CorruptStoreWarning,
                    stacklevel=2,
                )
        out.sort(key=lambda c: c.key())
        return out

    def put(self, cell: CellResult) -> Path:
        """Persist one cell atomically; returns its file path.

        Two handler threads storing the same cell each write their own
        temp file (:func:`~repro.util.persist.write_atomic`), and
        whichever rename lands last wins with a complete payload (the
        values are identical anyway — cells are pure functions of their
        keys)."""
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

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
