"""Byte-level file I/O shared by every on-disk store.

Three shapes of durability cover all of them:

* :func:`write_atomic` replaces a whole file (a result-store cell, the
  eval store, the benchmark cell cache, FFT wisdom);
* :func:`append_line` appends one fsynced record (the serve job
  journal);
* :func:`parse_jsonl` reads line records back, skipping the ones that
  do not parse (a torn tail from a killed writer, a foreign schema).

Only the I/O lives here.  Each store keeps its own locking, merge and
first-wins policy, and decides whether a skipped record is worth a
warning.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Callable


class CorruptStoreWarning(UserWarning):
    """A store file existed but could not be used (skipped, not fatal).

    Crash-resilience policy: a truncated or foreign file in a store
    directory is a *miss*, never an error — an interrupted writer or a
    stray file must not take down the grid run that finds it.  The
    warning keeps the skip observable.
    """


def write_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` so a reader sees the old file or
    the new one, never a torn one.

    The text goes to a temp file beside the target, then ``os.replace``
    renames it into place (atomic on POSIX).  The temp name carries the
    pid *and* the thread id, so two writers of one target, in different
    processes or threads of one process, never share a temp file and
    the last rename wins with a complete payload.  There is no fsync:
    the guarantee is against killed and concurrent writers, not power
    loss, and every file written this way can be recomputed.
    """
    target = Path(path)
    tmp = target.with_name(
        f"{target.name}.tmp.{os.getpid()}.{threading.get_ident()}"
    )
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, target)


def append_line(path: str | Path, line: str) -> None:
    """Append ``line`` and a newline as one ``write``, then fsync.

    One unbuffered write per record means a crash can tear only the
    file's last line, which :func:`parse_jsonl` skips.  A torn last line
    left by an earlier crash is ended first, in the same write, so the
    new record starts a line of its own instead of being glued to the
    torn one and lost with it.
    """
    data = (line + "\n").encode("utf-8")
    with open(path, "a+b", buffering=0) as fh:
        if fh.seek(0, os.SEEK_END) > 0:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                data = b"\n" + data
        fh.write(data)
        try:
            os.fsync(fh.fileno())
        except OSError:  # pragma: no cover - exotic filesystems
            pass


def parse_jsonl(
    text: str, convert: Callable[[Any], Any] | None = None
) -> tuple[list, int]:
    """Parse one JSON value per non-blank line of ``text``.

    Returns ``(records, skipped)``.  A line that is not JSON, or whose
    value ``convert`` rejects with ``ValueError``, ``KeyError`` or
    ``TypeError``, is counted in ``skipped`` and left out; ``records``
    holds ``convert(value)`` (or the value itself) for every other line,
    in file order.
    """
    records: list = []
    skipped = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            value = json.loads(line)
            records.append(value if convert is None else convert(value))
        except (ValueError, KeyError, TypeError):
            skipped += 1
    return records, skipped
