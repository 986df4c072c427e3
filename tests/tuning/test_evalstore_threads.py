"""EvalStore under concurrency: the serve-layer hardening (DESIGN.md §5.13).

These are the regression tests for the two races the plan server
exposed: interleaved record/counter mutation from many handler threads,
and the same-process ``save`` lost-update (two threads read the same
stale disk snapshot, both replace, the loser's records vanish).  They
fail on the pre-lock store and pass with the internal RLock + per-path
save serialization.
"""

import threading

from repro.obs.registry import MetricsRegistry, scoped_registry
from repro.tuning import EvalRecord, EvalStore

THREADS = 8
PER_THREAD = 200


def _key(t: int, i: int) -> str:
    return f"X|NEW|64x64x64|p4|tuned|t{t}_i{i}"


class TestConcurrentMutation:
    def test_hammer_put_get_loses_nothing(self):
        """8 threads × 200 disjoint puts + interleaved hits/misses:
        every record lands, and the registry's hit counter adds up
        exactly."""
        store = EvalStore()
        reg = MetricsRegistry()
        barrier = threading.Barrier(THREADS)

        def worker(t: int) -> None:
            barrier.wait()
            with scoped_registry(reg):  # registry scopes are per thread
                work(t)

        def work(t: int) -> None:
            for i in range(PER_THREAD):
                key = _key(t, i)
                store.put_key(key, EvalRecord(1.0, 1.0, True))
                assert store.get_key(key) is not None          # hit
                assert store.get_key(_key(t, i) + "?") is None  # miss

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(THREADS)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(store) == THREADS * PER_THREAD
        assert store.new_records == THREADS * PER_THREAD
        assert reg.value("tune_store_hits_total") == THREADS * PER_THREAD

    def test_concurrent_merges_into_one_store(self):
        """Each thread merges its own disjoint store into one shared
        target; a racy dict merge would drop records or double-count
        the added tally."""
        shared = EvalStore()
        sources = []
        for t in range(THREADS):
            src = EvalStore()
            for i in range(PER_THREAD):
                src.put_key(_key(t, i), EvalRecord(1.0, 1.0, True))
            sources.append(src)
        barrier = threading.Barrier(THREADS)
        added = [0] * THREADS

        def worker(t: int) -> None:
            barrier.wait()
            added[t] = shared.merge(sources[t])

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(THREADS)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(shared) == THREADS * PER_THREAD
        assert sum(added) == THREADS * PER_THREAD

    def test_cross_merge_does_not_deadlock(self):
        """a.merge(b) racing b.merge(a): the copy-then-insert discipline
        never nests the two locks, so this must finish."""
        a, b = EvalStore(), EvalStore()
        for i in range(PER_THREAD):
            a.put_key(_key(0, i), EvalRecord(1.0, 1.0, True))
            b.put_key(_key(1, i), EvalRecord(2.0, 2.0, True))
        barrier = threading.Barrier(2)

        def cross(dst: EvalStore, src: EvalStore) -> None:
            barrier.wait()
            for _ in range(50):
                dst.merge(src)

        t1 = threading.Thread(target=cross, args=(a, b))
        t2 = threading.Thread(target=cross, args=(b, a))
        t1.start(); t2.start()
        t1.join(timeout=30); t2.join(timeout=30)
        assert not t1.is_alive() and not t2.is_alive(), "merge deadlocked"
        assert len(a) == len(b) == 2 * PER_THREAD


class TestSaveLostUpdate:
    def test_two_thread_save_keeps_both_sides(self, tmp_path):
        """The classic lost update: two threads with disjoint records
        both save to the same file at the same moment.  Unlocked, both
        read the same (empty) disk snapshot and the second replace
        erases the first thread's records; the per-path save lock
        serializes them so the file ends up with the union."""
        target = tmp_path / "evals.jsonl"
        stores = []
        for t in range(2):
            st = EvalStore()
            for i in range(PER_THREAD):
                st.put_key(_key(t, i), EvalRecord(1.0, 1.0, True))
            stores.append(st)
        barrier = threading.Barrier(2)

        def saver(st: EvalStore) -> None:
            barrier.wait()
            st.save(target)

        t1 = threading.Thread(target=saver, args=(stores[0],))
        t2 = threading.Thread(target=saver, args=(stores[1],))
        t1.start(); t2.start()
        t1.join(); t2.join()
        merged = EvalStore.load(target)
        assert len(merged) == 2 * PER_THREAD, (
            "save lost records written by the other thread"
        )

    def test_many_thread_save_storm(self, tmp_path):
        """8 threads × repeated saves of growing disjoint stores: the
        final file holds every record ever saved (first-wins merge is
        lossless; the lock only prevents same-process interleaving)."""
        target = tmp_path / "evals.jsonl"
        barrier = threading.Barrier(THREADS)

        def worker(t: int) -> None:
            st = EvalStore()
            barrier.wait()
            for i in range(20):
                st.put_key(_key(t, i), EvalRecord(1.0, 1.0, True))
                st.save(target)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(THREADS)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        merged = EvalStore.load(target)
        assert len(merged) == THREADS * 20
        leftovers = [f for f in tmp_path.iterdir() if ".tmp." in f.name]
        assert leftovers == []
