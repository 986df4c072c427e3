"""On-disk result store: atomicity, key discipline, corruption handling,
memory-served warm hits."""

import json
import sys
import threading
from pathlib import Path

import pytest

from repro.bench import clear_cache, evaluate_cell
from repro.exec import CorruptStoreWarning, ResultStore

BUDGET = 4


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def cell():
    return evaluate_cell("UMD-Cluster", 4, 32, max_evaluations=BUDGET)


class TestResultStore:
    def test_roundtrip(self, tmp_path, cell):
        store = ResultStore(tmp_path / "cells")
        path = store.put(cell)
        assert path.exists()
        assert len(store) == 1
        back = store.get("UMD-Cluster", 4, 32, BUDGET)
        assert back == cell

    def test_missing_key_is_none(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("UMD-Cluster", 4, 32, BUDGET) is None

    def test_corrupt_file_is_a_miss(self, tmp_path, cell):
        store = ResultStore(tmp_path)
        store.put(cell)
        store.path_for(cell.platform, cell.p, cell.n, cell.budget).write_text(
            "{ truncated"
        )
        assert store.get("UMD-Cluster", 4, 32, BUDGET) is None

    def test_mismatched_contents_are_a_miss(self, tmp_path, cell):
        store = ResultStore(tmp_path)
        path = store.put(cell)
        # A file whose *name* claims a different key must not be served.
        impostor = store.path_for(cell.platform, cell.p, 64, cell.budget)
        impostor.write_text(path.read_text())
        assert store.get("UMD-Cluster", 4, 64, BUDGET) is None

    def test_put_is_atomic(self, tmp_path, cell):
        store = ResultStore(tmp_path)
        store.put(cell)
        store.put(cell)  # overwrite goes through the same tmp+rename path
        leftovers = [f for f in store.root.iterdir() if ".tmp." in f.name]
        assert leftovers == []
        assert len(store) == 1

    def test_payload_is_plain_json(self, tmp_path, cell):
        store = ResultStore(tmp_path)
        path = store.put(cell)
        item = json.loads(path.read_text())
        assert item["platform"] == "UMD-Cluster"
        assert item["budget"] == BUDGET
        assert set(item["times"]) == {"FFTW", "NEW", "TH"}

    def test_counters_and_stats(self, tmp_path, cell):
        store = ResultStore(tmp_path)
        assert store.get("UMD-Cluster", 4, 32, BUDGET) is None
        store.put(cell)
        assert store.get("UMD-Cluster", 4, 32, BUDGET) == cell
        assert store.stats() == {"hits": 1, "misses": 1, "puts": 1}


class TestResultStoreMemory:
    """A warm hit is served from memory; disk stays the authority."""

    KEY = ("UMD-Cluster", 4, 32, BUDGET)

    @pytest.fixture
    def reads(self, monkeypatch):
        """Files opened for reading through :class:`Path`."""
        opened: list[str] = []
        real_open = Path.open

        def counting_open(self, mode="r", *args, **kwargs):
            if "r" in mode:
                opened.append(self.name)
            return real_open(self, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        return opened

    def test_gets_after_a_put_read_no_file(self, tmp_path, cell, reads):
        store = ResultStore(tmp_path)
        store.put(cell)
        assert store.get(*self.KEY) == cell
        assert store.get(*self.KEY) == cell
        assert reads == []
        assert store.stats() == {"hits": 2, "misses": 0, "puts": 1}

    def test_a_validated_file_is_read_once(self, tmp_path, cell, reads):
        ResultStore(tmp_path).put(cell)
        store = ResultStore(tmp_path)
        assert store.get(*self.KEY) == cell
        assert store.get(*self.KEY) == cell
        assert len(reads) == 1

    def test_corrupt_file_is_a_warned_miss_every_time(self, tmp_path, cell,
                                                      reads):
        store = ResultStore(tmp_path)
        store.path_for(*self.KEY).write_text("{ truncated")
        for _ in range(2):
            with pytest.warns(CorruptStoreWarning):
                assert store.get(*self.KEY) is None
        assert len(reads) == 2  # the failed parse was not held
        store.put(cell)
        assert store.get(*self.KEY) == cell

    def test_second_store_sees_the_first_ones_puts(self, tmp_path, cell):
        first, second = ResultStore(tmp_path), ResultStore(tmp_path)
        assert second.get(*self.KEY) is None
        first.put(cell)
        assert second.get(*self.KEY) == cell
        assert len(second) == 1
        assert second.cells() == [cell]

    def test_a_replaced_file_is_read_again(self, tmp_path, cell, reads):
        first, second = ResultStore(tmp_path), ResultStore(tmp_path)
        first.put(cell)
        assert first.get(*self.KEY) == cell
        second.put(cell)  # a new inode renamed into place
        assert first.get(*self.KEY) == cell
        assert len(reads) == 1

    def test_a_removed_file_is_a_miss(self, tmp_path, cell):
        store = ResultStore(tmp_path)
        store.put(cell).unlink()
        assert store.get(*self.KEY) is None

    def test_held_cells_under_a_rewrite_storm(self, tmp_path, cell):
        """8 readers of one store while another store keeps replacing
        the file: every read is the cell (held or re-read, never torn)
        and every lookup is counted once."""
        store, writer = ResultStore(tmp_path), ResultStore(tmp_path)
        store.put(cell)
        readers, rounds = 8, 200
        barrier = threading.Barrier(readers + 1, timeout=30)
        failures: list[str] = []

        def read() -> None:
            barrier.wait()
            for _ in range(rounds):
                got = store.get(*self.KEY)
                if got != cell:
                    failures.append(f"read back {got!r}")

        def rewrite() -> None:
            barrier.wait()
            for _ in range(rounds // 4):
                writer.put(cell)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(readers)]
            threads.append(threading.Thread(target=rewrite))
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert failures == []
        assert store.stats() == {"hits": readers * rounds, "misses": 0,
                                 "puts": 1}


class TestResultStoreThreads:
    """The serve layer shares one store across handler + job threads
    (DESIGN.md §5.13); these pin the concurrency contract."""

    def test_same_cell_put_storm_stays_readable(self, tmp_path, cell):
        """8 threads putting + getting the same cell: the thread-id'd
        temp names mean no thread ever promotes another's half-written
        file, so every interleaved read sees a complete payload."""
        store = ResultStore(tmp_path)
        threads_n, rounds = 8, 25
        barrier = threading.Barrier(threads_n)
        failures: list[str] = []

        def worker() -> None:
            barrier.wait()
            for _ in range(rounds):
                store.put(cell)
                got = store.get("UMD-Cluster", 4, 32, BUDGET)
                if got != cell:
                    failures.append(f"read back {got!r}")

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert failures == []
        leftovers = [f for f in store.root.iterdir() if ".tmp." in f.name]
        assert leftovers == []
        stats = store.stats()
        assert stats["puts"] == threads_n * rounds
        assert stats["hits"] == threads_n * rounds
        assert stats["hits"] + stats["misses"] == threads_n * rounds
