"""Benchmark runner: cell memoization, persistence, paper data sanity."""

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
    load_cache,
    save_cache,
)
from repro.core import ProblemShape
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
        cell = evaluate_cell(UMD_CLUSTER, 4, 64, max_evaluations=40)
        path = tmp_path / "cache.json"
        save_cache(path)
        clear_cache()
        assert load_cache(path) == 1
        # Same budget -> served from cache.
        restored = evaluate_cell(UMD_CLUSTER, 4, 64, max_evaluations=40)
        assert restored.times == cell.times
        assert restored.params["NEW"] == cell.params["NEW"]

    def test_save_cache_atomic(self, tmp_path):
        evaluate_cell(UMD_CLUSTER, 4, 64, max_evaluations=10)
        path = tmp_path / "cache.json"
        save_cache(path)
        save_cache(path)  # overwrite goes through os.replace
        assert [f.name for f in tmp_path.iterdir()] == ["cache.json"]

    def test_load_skips_pre_budget_schema(self, tmp_path):
        # Old-schema entries (no "budget") have ambiguous keys; they are
        # dropped rather than aliased to some budget.
        path = tmp_path / "cache.json"
        path.write_text('[{"platform": "UMD-Cluster", "p": 4, "n": 64}]')
        assert load_cache(path) == 0

    def test_load_missing_file(self, tmp_path):
        assert load_cache(tmp_path / "nope.json") == 0

    @pytest.mark.parametrize("damage", ["truncated", "foreign", "json-array"])
    def test_unreadable_cache_is_a_warned_miss(self, tmp_path, damage):
        """A damaged cache file restores nothing and the benchmark
        recomputes: it must not crash the session fixture."""
        evaluate_cell(UMD_CLUSTER, 4, 64, max_evaluations=10)
        path = tmp_path / "cache.json"
        save_cache(path)
        text = path.read_text()
        path.write_text({
            "truncated": text[: len(text) // 2],
            "foreign": "<html>not a cache</html>\n",
            # the whole-array format earlier versions wrote
            "json-array": json.dumps([json.loads(text)], indent=1),
        }[damage])
        clear_cache()
        with pytest.warns(CorruptStoreWarning, match="cell cache"):
            assert load_cache(path) == 0
