"""Shared evaluation store: keying, persistence, and cross-strategy reuse."""

import json
from contextlib import nullcontext

import pytest

from repro.bench import clear_cache
from repro.core import ProblemShape, default_params
from repro.errors import TuningError
from repro.exec import evaluate_cells
from repro.machine import UMD_CLUSTER
from repro.obs import Tracer, scoped_registry, tracing
from repro.util.persist import CorruptStoreWarning
from repro.tuning import (
    EvalRecord,
    EvalStore,
    autotune,
    eval_key,
    exhaustive_search,
    random_search,
    sweep_parameter,
)
from repro.core.variants import TH


def shape(n=64, p=4):
    return ProblemShape(n, n, n, p)


class TestKeying:
    def test_mode_is_part_of_the_key(self):
        p = default_params(shape())
        tuned = eval_key("X", "NEW", shape(), p, include_fixed_steps=False)
        full = eval_key("X", "NEW", shape(), p, include_fixed_steps=True)
        assert tuned != full

    def test_distinct_settings_are_disjoint(self):
        p = default_params(shape())
        keys = {
            eval_key("X", "NEW", shape(), p),
            eval_key("Y", "NEW", shape(), p),
            eval_key("X", "TH", shape(), p),
            eval_key("X", "NEW", shape(32, 4), default_params(shape(32, 4))),
            eval_key("X", "NEW", shape(), p.replace(T=1)),
        }
        assert len(keys) == 5

    def test_get_put_roundtrip_and_counters(self):
        store = EvalStore()
        p = default_params(shape())
        with scoped_registry() as reg:
            assert store.get("X", "NEW", shape(), p) is None
            store.put("X", "NEW", shape(), p, objective=0.5, cost=0.5)
            rec = store.get("X", "NEW", shape(), p)
        assert rec == EvalRecord(0.5, 0.5, True)
        assert reg.value("tune_store_hits_total") == 1  # the miss counts nothing
        assert store.new_records == 1

    def test_put_is_first_wins(self):
        store = EvalStore()
        p = default_params(shape())
        store.put("X", "NEW", shape(), p, 0.5, 0.5)
        store.put("X", "NEW", shape(), p, 9.9, 9.9)
        assert store.get("X", "NEW", shape(), p).objective == 0.5


class TestPersistence:
    def test_jsonl_roundtrip(self, tmp_path):
        store = EvalStore()
        p = default_params(shape())
        store.put("X", "NEW", shape(), p, 0.25, 0.25)
        store.put("X", "TH", shape(), p, 0.75, 0.75, include_fixed_steps=True)
        path = tmp_path / "evals.jsonl"
        assert store.save(path) == 2
        again = EvalStore.load(path)
        assert len(again) == 2
        assert again.get("X", "NEW", shape(), p).objective == 0.25
        # Loaded records are not "new": a worker would not re-ship them.
        assert again.new_records == 0

    def test_load_missing_is_empty(self, tmp_path):
        assert len(EvalStore.load(tmp_path / "none.jsonl")) == 0

    def test_corrupt_and_partial_lines_skipped(self, tmp_path):
        store = EvalStore()
        p = default_params(shape())
        store.put("X", "NEW", shape(), p, 0.25, 0.25)
        path = tmp_path / "evals.jsonl"
        store.save(path)
        # Simulate an interrupted concurrent writer: garbage line, a
        # truncated JSON tail, and a record missing required fields.
        with path.open("a") as fh:
            fh.write("not json at all\n")
            fh.write('{"key": "X|NEW|partial...\n')
            fh.write('{"objective": 1.0}\n')
            fh.write('{"key": 7, "objective": 1.0}\n')
        with pytest.warns(CorruptStoreWarning, match="skipped 4"):
            again = EvalStore.load(path)
        assert len(again) == 1
        assert again.get("X", "NEW", shape(), p).objective == 0.25

    def test_torn_tail_warns_with_skipped_count(self, tmp_path):
        store = EvalStore()
        base = default_params(shape())
        for t in (1, 2, 3, 4):
            store.put("X", "NEW", shape(), base.replace(T=t), 0.1 * t,
                      0.1 * t)
        lines = store.to_jsonl().splitlines()
        assert len(lines) == 4
        path = tmp_path / "evals.jsonl"
        path.write_text("\n".join(lines[:3] + [lines[3][:20]]) + "\n")
        with pytest.warns(CorruptStoreWarning, match="skipped 1") as rec:
            loaded = EvalStore.load(path)
        assert len(loaded) == 3
        assert str(path) in str(rec[0].message)

    def test_unknown_fields_ignored(self, tmp_path):
        line = json.dumps({
            "key": "X|NEW|64x64x64|p4|tuned|T=4,W=2,Px=4,Pz=2,Uy=4,Uz=2,"
                   "Fy=2,Fp=2,Fu=2,Fx=2",
            "objective": 0.5, "cost": 0.5, "executed": True,
            "schema_v99_field": {"whatever": 1},
        })
        store = EvalStore.from_jsonl(line + "\n")
        assert len(store) == 1

    def test_save_merges_with_concurrent_writer(self, tmp_path):
        """Two writers that both read-then-save lose nothing: whichever
        os.replace lands last folded the other's records in first."""
        path = tmp_path / "evals.jsonl"
        p = default_params(shape())
        a = EvalStore()
        a.put("X", "NEW", shape(), p, 0.1, 0.1)
        a.save(path)
        b = EvalStore()  # never saw a's record in memory
        b.put("X", "NEW", shape(), p.replace(T=1), 0.2, 0.2)
        b.save(path)
        merged = EvalStore.load(path)
        assert len(merged) == 2
        assert merged.get("X", "NEW", shape(), p).objective == 0.1
        assert merged.get("X", "NEW", shape(), p.replace(T=1)).objective == 0.2

    def test_save_never_truncates_on_replace(self, tmp_path):
        # The temp file carries the pid; the target is only ever replaced
        # wholesale, so a reader sees either the old or the new content.
        path = tmp_path / "evals.jsonl"
        store = EvalStore()
        store.put("X", "NEW", shape(), default_params(shape()), 0.1, 0.1)
        store.save(path)
        before = path.read_text()
        store.put("X", "NEW", shape(), default_params(shape()).replace(T=1),
                  0.2, 0.2)
        store.save(path)
        after = path.read_text()
        assert before in after or len(after.splitlines()) == 2
        assert not list(tmp_path.glob("*.tmp.*"))  # no litter left behind

    def test_merge_counts_added(self):
        p = default_params(shape())
        a, b = EvalStore(), EvalStore()
        a.put("X", "NEW", shape(), p, 0.1, 0.1)
        b.put("X", "NEW", shape(), p, 0.9, 0.9)
        b.put("X", "TH", shape(), p, 0.2, 0.2)
        assert a.merge(b) == 1  # first-wins: the duplicate key is kept
        assert a.get("X", "NEW", shape(), p).objective == 0.1
        assert len(a) == 2


class TestScoped:
    def test_scope_pins_the_setting(self):
        store = EvalStore()
        p = default_params(shape())
        scoped = store.scope("X", "NEW", shape())
        scoped.put(p, 0.5, 0.5)
        assert store.get("X", "NEW", shape(), p).objective == 0.5
        assert store.scope("X", "TH", shape()).get(p) is None


class TestWarmTuning:
    """The acceptance criteria: a warm store eliminates re-simulation."""

    def test_warm_rerun_executes_zero_simulations(self):
        s = shape()
        store = EvalStore()
        cold = autotune("NEW", UMD_CLUSTER, s, max_evaluations=80,
                        eval_store=store)
        assert cold.session.executed_evaluations > 0
        assert store.new_records == cold.session.executed_evaluations
        warm = autotune("NEW", UMD_CLUSTER, s, max_evaluations=80,
                        eval_store=store)
        assert warm.session.executed_evaluations == 0  # all store hits
        assert warm.best_objective == cold.best_objective
        assert warm.best_params == cold.best_params

    def test_cross_strategy_sharing(self):
        """Nelder-Mead warms the pool; coordinate descent then executes
        strictly fewer evaluations for an unchanged best objective."""
        s = shape()
        store = EvalStore()
        autotune("NEW", UMD_CLUSTER, s, max_evaluations=80, eval_store=store)

        cold_store = EvalStore()
        coord_cold = autotune("NEW", UMD_CLUSTER, s, max_evaluations=80,
                              strategy="coordinate", eval_store=cold_store)
        coord_warm = autotune("NEW", UMD_CLUSTER, s, max_evaluations=80,
                              strategy="coordinate", eval_store=store)
        assert (coord_warm.session.executed_evaluations
                < coord_cold.session.executed_evaluations)
        # The store replays exactly what execution would measure, so the
        # search trajectory — and hence the winner — is identical.
        assert coord_warm.best_objective == coord_cold.best_objective
        assert coord_warm.best_params == coord_cold.best_params

    def test_store_hits_traced(self):
        s = shape()
        store = EvalStore()
        autotune("NEW", UMD_CLUSTER, s, max_evaluations=80, eval_store=store)
        with scoped_registry() as reg, \
                tracing(Tracer(rank_spans=False)) as tr:
            warm = autotune("NEW", UMD_CLUSTER, s, max_evaluations=80,
                            eval_store=store)
        hits = reg.value("tune_store_hits_total")
        assert hits > 0
        assert sum(sp.attrs["store_hit"] for sp in tr.spans) == hits
        assert warm.session.executed_evaluations == 0

    def test_th_variant_keys_do_not_collide_with_new(self):
        s = shape()
        store = EvalStore()
        autotune("NEW", UMD_CLUSTER, s, max_evaluations=60, eval_store=store)
        th = autotune("TH", UMD_CLUSTER, s, max_evaluations=60,
                      eval_store=store)
        assert th.session.space.ndim == len(TH.tunable)
        assert th.best_params.is_feasible(s)


class TestGridHitCounting:
    """Every read-through hit of a grid run is counted once in the
    caller's registry, whether the cells run in-process or in a pool:
    in-process every hit is a traced evaluation's ``store_hit``, and a
    pool counts what the same run counts in-process."""

    CELLS = [(4, 32), (8, 32)]

    def warm_hits(self, jobs, tracer=None):
        """Registry hits of a warm rerun of :attr:`CELLS` on ``jobs``."""
        store = EvalStore()
        clear_cache()
        evaluate_cells("UMD-Cluster", self.CELLS, jobs=jobs,
                       max_evaluations=6, eval_store=store)
        clear_cache()
        with scoped_registry() as reg, \
                (nullcontext() if tracer is None else tracing(tracer)):
            evaluate_cells("UMD-Cluster", self.CELLS, jobs=jobs,
                           max_evaluations=6, eval_store=store)
        clear_cache()
        return reg.value("tune_store_hits_total")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_registry_counts_each_hit_once(self, jobs):
        tr = Tracer(rank_spans=False)
        serial = self.warm_hits(1, tr)
        assert serial > 0
        assert sum(sp.attrs.get("store_hit", 0) for sp in tr.spans) == serial
        if jobs > 1:
            assert self.warm_hits(jobs) == serial


class TestSearchBaselinesShareTheStore:
    def test_random_search_warm_is_identical_and_free(self):
        s = shape()
        store = EvalStore()
        cold = random_search("NEW", UMD_CLUSTER, s, n_samples=8, seed=5,
                             eval_store=store)
        produced = store.new_records
        assert produced > 0
        with scoped_registry() as reg:
            warm = random_search("NEW", UMD_CLUSTER, s, n_samples=8, seed=5,
                                 eval_store=store)
        assert list(warm.times) == list(cold.times)
        assert store.new_records == produced  # nothing re-simulated
        assert reg.value("tune_store_hits_total") == 8

    def test_sweep_warm_is_identical_and_free(self):
        s = shape()
        store = EvalStore()
        cold = sweep_parameter("NEW", UMD_CLUSTER, s, "W", eval_store=store)
        produced = store.new_records
        warm = sweep_parameter("NEW", UMD_CLUSTER, s, "W", eval_store=store)
        assert [p.objective for p in warm] == [p.objective for p in cold]
        assert store.new_records == produced

    def test_sweep_mode_keys_separate_from_tuning(self):
        # Sweeps time the full pipeline (include_fixed_steps=True); the
        # tuning objective excludes fixed steps — the store must never
        # alias the two.
        s = shape()
        store = EvalStore()
        sweep_parameter("NEW", UMD_CLUSTER, s, "W", eval_store=store)
        n_full = store.new_records
        autotune("NEW", UMD_CLUSTER, s, max_evaluations=40, eval_store=store)
        assert store.new_records > n_full  # tuned-mode records are new keys

    def test_exhaustive_search_warm_executes_zero(self):
        s = ProblemShape(16, 16, 16, 2)
        store = EvalStore()
        best1, val1, n1 = exhaustive_search(
            "TH", UMD_CLUSTER, s, eval_store=store
        )
        assert n1 > 0
        best2, val2, n2 = exhaustive_search(
            "TH", UMD_CLUSTER, s, eval_store=store
        )
        assert n2 == 0
        assert val2 == val1
        assert best2 == best1

    def test_random_and_nm_share_tuned_mode_records(self):
        # Random search (fixed steps excluded) warms the same pool the
        # tuner reads: overlapping configurations become store hits.
        s = shape()
        store = EvalStore()
        random_search("NEW", UMD_CLUSTER, s, n_samples=30, seed=1,
                      eval_store=store)
        result = autotune("NEW", UMD_CLUSTER, s, max_evaluations=80,
                          eval_store=store)
        total = (result.session.executed_evaluations
                 + sum(1 for e in result.session.history
                       if not e.executed and e.params is not None))
        assert total > 0  # sanity: the session did evaluate real points


class TestSampleParamsBound:
    def test_infeasible_space_raises_instead_of_hanging(self):
        import random as _random

        from repro.tuning import SearchSpace, sample_params

        s = shape()
        # base is infeasible in a dimension the space does not tune, so
        # no draw over W can ever be feasible.
        bad = default_params(s).replace(Px=s.nx * 4)
        space = SearchSpace(s, ("W",))
        with pytest.raises(TuningError) as err:
            sample_params(space, s, bad, _random.Random(0), max_tries=50)
        assert "64x64x64" in str(err.value)
        assert "W" in str(err.value)


class TestNelderMeadInitGuard:
    def test_best_before_any_tell_raises_tuning_error(self):
        import numpy as np

        from repro.tuning import NelderMead

        nm = NelderMead(np.zeros((3, 2)) + np.arange(3)[:, None])
        with pytest.raises(TuningError):
            nm.best()

    def test_best_after_one_tell_works(self):
        import numpy as np

        from repro.tuning import NelderMead

        nm = NelderMead(np.zeros((3, 2)) + np.arange(3)[:, None])
        x = nm.ask()
        nm.tell(x, 1.5)
        _best_x, best_v = nm.best()
        assert best_v == 1.5
