"""Benchmark runner: the process cell store, its on-disk round trip,
paper data sanity."""

import json

import pytest

from repro.bench import (
    LARGE_CELLS,
    PAPER_SPEEDUP_RANGES,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    SMALL_CELLS,
    clear_cache,
    evaluate_cell,
)
from repro.bench.runner import PROCESS_STORE
from repro.core import ProblemShape
from repro.exec import ResultStore
from repro.machine import UMD_CLUSTER
from repro.util.persist import CorruptStoreWarning


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestPaperData:
    def test_every_small_cell_has_reference_rows(self):
        for key in ("UMD-Cluster", "Hopper"):
            assert set(PAPER_TABLE2[key]) == set(SMALL_CELLS)
            assert set(PAPER_TABLE3[key]) == set(SMALL_CELLS)
            assert set(PAPER_TABLE4[key]) == set(SMALL_CELLS)

    def test_every_large_cell_has_reference_rows(self):
        assert set(PAPER_TABLE2["Hopper-large"]) == set(LARGE_CELLS)
        assert set(PAPER_TABLE3["Hopper-large"]) == set(LARGE_CELLS)

    def test_paper_new_always_wins(self):
        # Internal consistency of the transcribed numbers: NEW < FFTW.
        for table in PAPER_TABLE2.values():
            for (p, n), (fftw, new, _th) in table.items():
                assert new < fftw, (p, n)

    def test_paper_speedups_inside_quoted_ranges(self):
        for key, (lo, hi) in PAPER_SPEEDUP_RANGES.items():
            table = PAPER_TABLE2[key]
            sps = [fftw / new for (fftw, new, _th) in table.values()]
            assert min(sps) >= lo - 0.01, key
            assert max(sps) <= hi + 0.01, key

    def test_paper_params_feasible_in_our_space(self):
        # Sanity that the transcription respects the declared constraints.
        for key, table in PAPER_TABLE3.items():
            for (p, n), params in table.items():
                shape = ProblemShape(n, n, n, p)
                assert params.Pz <= params.T, (key, p, n)
                assert params.Uz <= params.T, (key, p, n)
                assert params.T <= shape.nz


class TestRunner:
    def test_memoization(self):
        a = evaluate_cell(UMD_CLUSTER, 4, 64, max_evaluations=40)
        b = evaluate_cell(UMD_CLUSTER, 4, 64, max_evaluations=40)
        assert a is b

    def test_cell_contents(self):
        cell = evaluate_cell(UMD_CLUSTER, 4, 64, max_evaluations=40)
        assert set(cell.times) == {"FFTW", "NEW", "TH"}
        assert cell.speedup("NEW") == cell.times["FFTW"] / cell.times["NEW"]
        assert all(t > 0 for t in cell.times.values())

    def test_budget_in_memo_key(self):
        # Different tuning budgets are different experiments: the memo
        # must not serve one for the other.
        a = evaluate_cell(UMD_CLUSTER, 4, 64, max_evaluations=10)
        b = evaluate_cell(UMD_CLUSTER, 4, 64, max_evaluations=40)
        assert a is not b
        assert a.budget == 10 and b.budget == 40
        assert evaluate_cell(UMD_CLUSTER, 4, 64, max_evaluations=10) is a

    def test_save_load_roundtrip(self, tmp_path):
        """The benchmark cell cache's round trip: the process store's
        cells are put into a directory store, and a later session puts
        that store's cells back into its empty process store."""
        cell = evaluate_cell(UMD_CLUSTER, 4, 64, max_evaluations=40)
        disk = ResultStore(tmp_path / "cells")
        for held in PROCESS_STORE.cells():
            disk.put(held)
        clear_cache()
        restored = ResultStore(tmp_path / "cells").cells()
        assert len(restored) == 1
        for held in restored:
            PROCESS_STORE.put(held)
        # Same budget -> served from the process store.
        again = evaluate_cell(UMD_CLUSTER, 4, 64, max_evaluations=40)
        assert again is restored[0]
        assert again.times == cell.times
        assert again.params["NEW"] == cell.params["NEW"]

    def test_load_skips_pre_budget_schema(self, tmp_path):
        # Old-schema entries (no "budget") have ambiguous keys; they are
        # dropped rather than aliased to some budget.
        (tmp_path / "UMD-Cluster__p4__n64.json").write_text(
            '{"platform": "UMD-Cluster", "p": 4, "n": 64}'
        )
        with pytest.warns(CorruptStoreWarning, match="corrupt"):
            assert ResultStore(tmp_path).cells() == []

    def test_load_missing_file(self, tmp_path):
        # the first cached session finds no store yet
        assert ResultStore(tmp_path / "nope").cells() == []

    @pytest.mark.parametrize("damage", ["truncated", "foreign", "json-array"])
    def test_unreadable_cache_is_a_warned_miss(self, tmp_path, damage):
        """A damaged cell file restores nothing and the benchmark
        recomputes: it must not crash the session fixture."""
        evaluate_cell(UMD_CLUSTER, 4, 64, max_evaluations=10)
        disk = ResultStore(tmp_path)
        path = disk.put(PROCESS_STORE.cells()[0])
        text = path.read_text()
        path.write_text({
            "truncated": text[: len(text) // 2],
            "foreign": "<html>not a cache</html>\n",
            # a whole-array file holding the cell
            "json-array": json.dumps([json.loads(text)], indent=1),
        }[damage])
        clear_cache()
        with pytest.warns(CorruptStoreWarning, match="corrupt"):
            assert ResultStore(tmp_path).cells() == []
