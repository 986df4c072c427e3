"""FFTW-style "wisdom": a persistent cache of planner decisions.

A wisdom entry maps ``(size, sign, flag-level)`` to the winning kernel
descriptor (policy string), so that re-planning the same transform is
instant.  Wisdom can be exported to / imported from JSON, mirroring
``fftw_export_wisdom``.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from ..util.persist import write_atomic


class WisdomStore:
    """Thread-safe in-memory wisdom cache with JSON import/export."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[tuple[int, int, str], str] = {}

    def lookup(self, n: int, sign: int, level: str) -> str | None:
        """Return the stored kernel descriptor, or ``None`` if unknown."""
        with self._lock:
            return self._entries.get((n, sign, level))

    def record(self, n: int, sign: int, level: str, kernel: str) -> None:
        """Remember that ``kernel`` won planning for this transform."""
        with self._lock:
            self._entries[(n, sign, level)] = kernel

    def forget(self) -> None:
        """Drop all wisdom (``fftw_forget_wisdom``)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- persistence -----------------------------------------------------

    def export_json(self) -> str:
        """Serialize all wisdom to a JSON string."""
        with self._lock:
            payload = [
                {"n": n, "sign": sign, "level": level, "kernel": kernel}
                for (n, sign, level), kernel in sorted(self._entries.items())
            ]
        return json.dumps(payload, indent=0)

    def import_json(self, text: str) -> int:
        """Merge wisdom from a JSON string; returns entries added."""
        payload = json.loads(text)
        added = 0
        with self._lock:
            for item in payload:
                key = (int(item["n"]), int(item["sign"]), str(item["level"]))
                if key not in self._entries:
                    added += 1
                self._entries[key] = str(item["kernel"])
        return added

    def save(self, path: str | Path) -> None:
        """Write wisdom to ``path`` as JSON, atomically."""
        write_atomic(path, self.export_json())

    def load(self, path: str | Path) -> int:
        """Merge wisdom from a JSON file; returns entries added."""
        return self.import_json(Path(path).read_text())


#: Process-global wisdom used by default by :class:`repro.fft.plan.Plan1D`.
GLOBAL_WISDOM = WisdomStore()
