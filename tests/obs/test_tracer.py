"""Tracer core: spans and the install stack (counts live in the registry)."""

import pytest

from repro.obs import (
    MetricsRegistry,
    Span,
    Tracer,
    VIRTUAL,
    WALL,
    current_tracer,
    install,
    parse_prometheus,
    scoped_registry,
    trace_meta,
    tracing,
    uninstall,
)
from repro.obs.registry import count


class TestSpans:
    def test_add_span_records_interval(self):
        tr = Tracer()
        tr.add_span("rank 0", "FFTy", 1.0, 2.5, VIRTUAL, {"tile": 3})
        (sp,) = tr.spans
        assert (sp.track, sp.name, sp.t0, sp.t1) == ("rank 0", "FFTy", 1.0, 2.5)
        assert sp.clock == VIRTUAL
        assert sp.attrs == {"tile": 3}
        assert sp.duration == 1.5

    def test_add_span_copies_attrs(self):
        tr = Tracer()
        attrs = {"tile": 0}
        tr.add_span("rank 0", "Pack", 0.0, 1.0, attrs=attrs)
        attrs["tile"] = 99
        assert tr.spans[0].attrs == {"tile": 0}

    def test_span_context_is_wall_clock(self):
        tr = Tracer()
        with tr.span("tune.eval", track="tuning", index=7) as attrs:
            attrs["feasible"] = True
        (sp,) = tr.spans
        assert sp.clock == WALL
        assert sp.track == "tuning"
        assert sp.attrs == {"index": 7, "feasible": True}
        assert sp.t1 >= sp.t0 >= 0.0

    def test_span_context_closes_on_exception(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError("body failed")
        assert len(tr.spans) == 1 and tr.spans[0].name == "boom"

    def test_max_spans_drops_and_counts(self):
        tr = Tracer(max_spans=2)
        for i in range(5):
            tr.add_span("t", f"s{i}", i, i + 1)
        assert len(tr.spans) == 2
        assert tr.dropped == 3


class TestMetrics:
    """Counts and samples go to the metrics registry, traced or not; the
    tracer holds spans only."""

    def test_counters_accumulate(self):
        with scoped_registry() as reg, tracing() as tr:
            count("sched_handoffs_total", 5)
            count("sched_handoffs_total")
        assert reg.value("sched_handoffs_total") == 6
        for attr in ("counters", "histograms", "count", "observe",
                     "summary"):
            assert not hasattr(tr, attr)

    def test_histogram_summary_digest(self):
        reg = MetricsRegistry()
        for v in (3.0, 1.0, 2.0):
            reg.observe("pool_item_seconds", v)
        assert parse_prometheus(reg.render_prometheus()) == {
            'pool_item_seconds{quantile="0.5"}': 2.0,
            'pool_item_seconds{quantile="1"}': 3.0,
            "pool_item_seconds_sum": 6.0,
            "pool_item_seconds_count": 3.0,
        }

    def test_summary_empty_without_drops(self):
        assert trace_meta(Tracer()) == {"spans_dropped": 0}


class TestRegistry:
    def test_disabled_by_default(self):
        assert current_tracer() is None

    def test_install_uninstall_stack(self):
        a, b = Tracer(), Tracer()
        install(a)
        install(b)
        assert current_tracer() is b
        uninstall(b)
        assert current_tracer() is a
        uninstall(a)
        assert current_tracer() is None

    def test_uninstall_out_of_order_rejected(self):
        a, b = Tracer(), Tracer()
        install(a)
        install(b)
        with pytest.raises(RuntimeError, match="out of order"):
            uninstall(a)
        uninstall(b)
        uninstall(a)

    def test_uninstall_empty_rejected(self):
        with pytest.raises(RuntimeError, match="no tracer"):
            uninstall()

    def test_tracing_context_scopes_and_restores(self):
        with tracing() as tr:
            assert current_tracer() is tr
            with tracing(Tracer(rank_spans=False)) as inner:
                assert current_tracer() is inner
                assert inner.rank_spans is False
            assert current_tracer() is tr
        assert current_tracer() is None

    def test_tracing_restores_on_exception(self):
        with pytest.raises(ValueError):
            with tracing():
                raise ValueError("body failed")
        assert current_tracer() is None


def test_span_dataclass_defaults():
    sp = Span("driver", "x", 0.0, 1.0)
    assert sp.clock == VIRTUAL and sp.attrs == {}
