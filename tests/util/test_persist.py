"""The three persistence primitives every store writes through.

Each primitive is checked once here for the property the stores rely
on: a whole-file replace is atomic, a torn tail from a killed writer
costs only itself, and writers on different threads never share a
temp file or interleave a record.
"""

import json
import os
import threading
from pathlib import Path

import pytest

from repro.util import persist
from repro.util.persist import append_line, parse_jsonl, write_atomic

THREADS = 8
PER_THREAD = 50


def _run_threads(worker) -> None:
    barrier = threading.Barrier(THREADS, timeout=10)

    def released(t: int) -> None:
        barrier.wait()
        worker(t)

    threads = [threading.Thread(target=released, args=(t,))
               for t in range(THREADS)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=30)
    assert not any(th.is_alive() for th in threads)


class TestWriteAtomic:
    def test_replace_leaves_only_the_new_file(self, tmp_path):
        target = tmp_path / "store.json"
        write_atomic(target, "old")
        write_atomic(target, "new")
        assert target.read_text() == "new"
        assert [f.name for f in tmp_path.iterdir()] == ["store.json"]

    def test_killed_writer_leaves_the_old_file_whole(self, tmp_path,
                                                     monkeypatch):
        """A writer that dies after a partial temp write never renames:
        readers keep seeing the previous complete file."""
        target = tmp_path / "store.json"
        write_atomic(target, "complete")

        def torn_write(self, text, encoding=None):
            with open(self, "w", encoding=encoding) as fh:
                fh.write(text[: len(text) // 2])
            raise RuntimeError("killed")

        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(RuntimeError, match="killed"):
            write_atomic(target, "x" * 100)
        monkeypatch.undo()
        assert target.read_text() == "complete"

    def test_threads_use_distinct_temp_names(self, tmp_path, monkeypatch):
        target = tmp_path / "store.json"
        temps = []
        real_replace = os.replace

        def spying_replace(src, dst):
            temps.append(Path(src).name)
            real_replace(src, dst)

        monkeypatch.setattr(persist.os, "replace", spying_replace)
        payloads = {t: json.dumps({"writer": t, "pad": "x" * 4096})
                    for t in range(THREADS)}

        def worker(t: int) -> None:
            for _ in range(PER_THREAD):
                write_atomic(target, payloads[t])

        _run_threads(worker)
        assert len(set(temps)) == THREADS
        assert all(f".tmp.{os.getpid()}." in name for name in temps)
        assert target.read_text() in payloads.values()


class TestAppendLine:
    def test_each_record_is_one_fsynced_line(self, tmp_path, monkeypatch):
        path = tmp_path / "log.jsonl"
        synced = []
        monkeypatch.setattr(persist.os, "fsync", synced.append)
        append_line(path, '{"n": 1}')
        append_line(path, '{"n": 2}')
        assert path.read_text() == '{"n": 1}\n{"n": 2}\n'
        assert len(synced) == 2

    def test_append_after_a_torn_tail_starts_a_new_line(self, tmp_path):
        """Only the torn record is lost; the next one is not glued to it."""
        path = tmp_path / "log.jsonl"
        append_line(path, '{"n": 1}')
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"n": 2, "pa')  # killed mid-write, no newline
        append_line(path, '{"n": 3}')
        records, skipped = parse_jsonl(path.read_text())
        assert records == [{"n": 1}, {"n": 3}]
        assert skipped == 1

    def test_threads_never_interleave_records(self, tmp_path):
        path = tmp_path / "log.jsonl"

        def worker(t: int) -> None:
            for i in range(PER_THREAD):
                append_line(path,
                            json.dumps({"t": t, "i": i, "pad": "x" * 200}))

        _run_threads(worker)
        records, skipped = parse_jsonl(path.read_text())
        assert skipped == 0
        assert sorted((r["t"], r["i"]) for r in records) == [
            (t, i) for t in range(THREADS) for i in range(PER_THREAD)
        ]


class TestParseJsonl:
    def test_torn_tail_and_rejected_records_are_counted(self):
        text = ('{"key": "a"}\n\n  \n[1, 2]\n{"other": 1}\n'
                '{"key": "b"}\n{"key": "c", "ob')
        records, skipped = parse_jsonl(text, lambda rec: rec["key"])
        assert records == ["a", "b"]
        assert skipped == 3  # the list, the record without "key", the tail

    def test_without_convert_returns_the_values(self):
        assert parse_jsonl('1\n"two"\n{"three": 3}\n') == (
            [1, "two", {"three": 3}], 0
        )
