"""The telemetry plane's registry substrate (DESIGN.md §5.12).

Pins four contracts:

* **family semantics** — labeled counters/gauges/histograms with kind
  checking and label-order insensitivity;
* **snapshot/delta/merge** — deltas carry only what changed, counters
  and histograms merge additively (order-independent), gauges are
  first-wins, like the eval store's merge discipline;
* **exposition** — the Prometheus text rendering is deterministic
  (golden test) and round-trips through :func:`parse_prometheus`;
* **reset safety** — back-to-back ``evaluate_cells`` runs never leak
  counts into each other or the process-global registry, while a
  caller-installed registry observes exactly one run.
"""

import threading

import pytest

from repro.bench import clear_cache
from repro.exec import evaluate_cells
from repro.obs.registry import (
    MetricsRegistry,
    count,
    current_registry,
    global_registry,
    metrics_enabled,
    parse_prometheus,
    publish_sched_stats,
    run_registry,
    scoped_registry,
    set_enabled,
)
from repro.simmpi.engine import SchedStats


class TestFamilies:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("jobs_total", 2)
        reg.inc("jobs_total", 3)
        assert reg.value("jobs_total") == 5

    def test_total_sums_label_sets(self):
        reg = MetricsRegistry()
        reg.inc("runs_total", 2, backend="a")
        reg.inc("runs_total", 3, backend="b")
        assert reg.total("runs_total") == 5
        assert reg.total("absent_total") == 0.0

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.inc("x_total", 1, a="1", b="2")
        reg.inc("x_total", 1, b="2", a="1")
        assert reg.value("x_total", b="2", a="1") == 2

    def test_gauge_last_write_wins_locally(self):
        reg = MetricsRegistry()
        reg.set("depth", 3)
        reg.set("depth", 7)
        assert reg.value("depth") == 7

    def test_histogram_collects_samples(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.5)
        reg.observe("lat", 0.1)
        assert reg.value("lat") == [0.5, 0.1]

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.inc("n")
        with pytest.raises(ValueError, match="counter"):
            reg.set("n", 1.0)

    def test_absent_sample_is_none(self):
        reg = MetricsRegistry()
        assert reg.value("nope") is None


class TestSnapshotDeltaMerge:
    def test_delta_carries_only_changes(self):
        reg = MetricsRegistry()
        reg.inc("a_total", 2)
        reg.observe("h", 1.0)
        reg.set("g", 5)
        snap = reg.snapshot()
        reg.inc("a_total", 3)
        reg.observe("h", 2.0)
        reg.inc("b_total", 1)
        delta = reg.delta(snap)
        assert delta["a_total"]["samples"] == [[[], 3.0]]
        assert delta["h"]["samples"] == [[[], [2.0]]]
        assert delta["b_total"]["samples"] == [[[], 1.0]]
        # the gauge ships its current level; unchanged counters drop out
        assert delta["g"]["samples"] == [[[], 5.0]]

    def test_unchanged_registry_has_empty_counter_delta(self):
        reg = MetricsRegistry()
        reg.inc("a_total", 2)
        delta = reg.delta(reg.snapshot())
        assert "a_total" not in delta

    def test_merge_is_additive_for_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n_total", 2)
        b.inc("n_total", 5)
        a.observe("h", 1.0)
        b.observe("h", 2.0)
        target = MetricsRegistry()
        applied = target.merge(a.snapshot()) + target.merge(b.snapshot())
        assert applied == 4
        assert target.value("n_total") == 7
        assert sorted(target.value("h")) == [1.0, 2.0]

    def test_merge_order_cannot_change_counter_totals(self):
        payloads = []
        for n in (2, 5, 11):
            reg = MetricsRegistry()
            reg.inc("n_total", n)
            payloads.append(reg.snapshot())
        fwd, rev = MetricsRegistry(), MetricsRegistry()
        for p in payloads:
            fwd.merge(p)
        for p in reversed(payloads):
            rev.merge(p)
        assert fwd.value("n_total") == rev.value("n_total") == 18

    def test_merged_gauge_is_first_wins(self):
        target = MetricsRegistry()
        target.set("depth", 3)
        other = MetricsRegistry()
        other.set("depth", 99)
        target.merge(other.snapshot())
        assert target.value("depth") == 3

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown metric kind"):
            MetricsRegistry().merge(
                {"x": {"kind": "exotic", "samples": [[[], 1]]}}
            )


class TestExposition:
    def test_render_prometheus_golden(self):
        reg = MetricsRegistry()
        reg.set("depth", 2.5, help="Queue depth.")
        reg.inc("jobs_total", 3, help="Jobs done.", kind="a")
        reg.inc("jobs_total", 1, kind="b")
        reg.observe("latency_seconds", 0.25, help="Item latency.")
        reg.observe("latency_seconds", 0.75)
        assert reg.render_prometheus() == (
            "# HELP depth Queue depth.\n"
            "# TYPE depth gauge\n"
            "depth 2.5\n"
            "# HELP jobs_total Jobs done.\n"
            "# TYPE jobs_total counter\n"
            'jobs_total{kind="a"} 3\n'
            'jobs_total{kind="b"} 1\n'
            "# HELP latency_seconds Item latency.\n"
            "# TYPE latency_seconds summary\n"
            'latency_seconds{quantile="0.5"} 0.75\n'
            'latency_seconds{quantile="1"} 0.75\n'
            "latency_seconds_sum 1\n"
            "latency_seconds_count 2\n"
        )

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.inc("x_total", 1, path='a"b\\c')
        text = reg.render_prometheus()
        assert 'path="a\\"b\\\\c"' in text
        assert parse_prometheus(text)  # still parseable

    def test_parse_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("n_total", 4, host="w1")
        reg.set("depth", 1.5)
        parsed = parse_prometheus(reg.render_prometheus())
        assert parsed == {'n_total{host="w1"}': 4.0, "depth": 1.5}

    def test_parse_rejects_malformed_line_with_lineno(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_prometheus("ok 1\nbogus-line-without-value\n")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


class TestScoping:
    def test_current_falls_back_to_global(self):
        assert current_registry() is global_registry()

    def test_scoped_registry_is_thread_local(self):
        seen = {}
        with scoped_registry() as reg:
            assert current_registry() is reg

            def other_thread():
                seen["reg"] = current_registry()

            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
        # the other thread's stack was empty: it saw the global registry
        assert seen["reg"] is global_registry()
        assert current_registry() is global_registry()

    def test_run_registry_reuses_installed_scope(self):
        with scoped_registry() as outer:
            with run_registry() as inner:
                assert inner is outer

    def test_run_registry_pushes_fresh_when_unscoped(self):
        with run_registry() as reg:
            assert reg is not global_registry()
            count("x_total")
            assert reg.value("x_total") == 1
        assert global_registry().value("x_total") is None

    def test_disabled_gate_makes_helpers_noops(self):
        prev = set_enabled(False)
        try:
            assert not metrics_enabled()
            with scoped_registry() as reg:
                count("gated_total")
                assert reg.value("gated_total") is None
        finally:
            set_enabled(prev)


class TestAdapters:
    def test_publish_sched_stats(self):
        stats = SchedStats(backend="heap", handoffs=7, probe_polls=3,
                           wakeups=2)
        with scoped_registry() as reg:
            publish_sched_stats(stats)
        assert reg.value("sim_runs_total", backend="heap") == 1
        assert reg.value("sim_handoffs_total", backend="heap") == 7
        assert reg.value("sim_probe_polls_total", backend="heap") == 3
        assert reg.value("sim_wakeups_total", backend="heap") == 2


class TestResetSafety:
    """Back-to-back grid runs must never leak counts (the regression
    the per-run registry scope exists for)."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        clear_cache()
        yield
        clear_cache()

    def test_back_to_back_runs_observe_identical_counts(self):
        with scoped_registry() as first:
            evaluate_cells("UMD-Cluster", [(4, 32)], max_evaluations=2)
        clear_cache()
        with scoped_registry() as second:
            evaluate_cells("UMD-Cluster", [(4, 32)], max_evaluations=2)
        assert first.value("pool_items_total", mode="serial") == 1
        assert (
            second.value("pool_items_total", mode="serial")
            == first.value("pool_items_total", mode="serial")
        )

        # identical runs observed the same number of simulations too
        # (summed across backend labels so the assertion doesn't care
        # which scheduler backend the engine picked)
        def sim_runs(reg):
            rec = reg.snapshot().get("sim_runs_total")
            assert rec is not None
            return sum(v for _key, v in rec["samples"])

        assert sim_runs(first) == sim_runs(second) > 0

    def test_unscoped_run_leaves_global_registry_untouched(self):
        before = global_registry().value("pool_items_total", mode="serial")
        evaluate_cells("UMD-Cluster", [(4, 32)], max_evaluations=2)
        after = global_registry().value("pool_items_total", mode="serial")
        assert after == before
