"""Metric registry semantics: instruments, labels, cardinality, disabled mode."""

import pytest

from repro.obs import NOOP_TELEMETRY, MetricRegistry, Telemetry, TraceContext
from repro.obs.registry import DEFAULT_SAMPLE_CAP


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricRegistry()
        c = reg.counter("reqs_total", "requests")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        reg = MetricRegistry()
        c = reg.counter("reqs_total", "requests")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricRegistry()
        g = reg.gauge("depth", "queue depth")
        g.set(10)
        g.dec(3)
        g.inc(1)
        assert g.value == 8

    def test_histogram_summary(self):
        reg = MetricRegistry()
        h = reg.histogram("lat", "latency")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        s = h.labels().summary()
        assert s["count"] == 4
        assert s["mean"] == pytest.approx(2.5)
        assert s["min"] == 1.0 and s["max"] == 4.0

    def test_histogram_exact_beyond_sample_cap(self):
        reg = MetricRegistry()
        h = reg.histogram("lat", "latency")
        for _ in range(DEFAULT_SAMPLE_CAP + 50):
            h.observe(1.0)
        s = h.labels().summary()
        assert s["count"] == DEFAULT_SAMPLE_CAP + 50
        assert len(h.labels().samples) == DEFAULT_SAMPLE_CAP

    def test_same_name_returns_same_family(self):
        reg = MetricRegistry()
        assert reg.counter("x", "x") is reg.counter("x", "x")

    def test_kind_mismatch_raises(self):
        reg = MetricRegistry()
        reg.counter("x", "x")
        with pytest.raises(ValueError):
            reg.gauge("x", "x")

    def test_label_mismatch_raises(self):
        reg = MetricRegistry()
        reg.counter("x", "x", labels=("a",))
        with pytest.raises(ValueError):
            reg.counter("x", "x", labels=("b",))


class TestLabels:
    def test_children_are_cached_per_combination(self):
        reg = MetricRegistry()
        fam = reg.counter("x", "x", labels=("op",))
        fam.labels(op="add").inc()
        fam.labels(op="add").inc()
        fam.labels(op="sub").inc()
        assert fam.labels(op="add").value == 2
        assert fam.labels(op="sub").value == 1

    def test_wrong_label_names_raise(self):
        reg = MetricRegistry()
        fam = reg.counter("x", "x", labels=("op",))
        with pytest.raises(ValueError):
            fam.labels(nope="add")

    def test_labelless_use_of_labeled_family_raises(self):
        reg = MetricRegistry()
        fam = reg.counter("x", "x", labels=("op",))
        with pytest.raises(ValueError):
            fam.inc()

    def test_cardinality_cap_routes_to_overflow_child(self):
        from repro.obs.registry import MetricFamily

        fam = MetricFamily("x", "counter", labelnames=("k",), max_children=4)
        for i in range(10):
            fam.labels(k=str(i)).inc()
        assert fam.overflowed == 6
        # the overflow child absorbed the excess combinations
        overflow = fam.labels(k="anything-new")
        assert overflow.value >= 6

    def test_collect_is_flat_and_typed(self):
        reg = MetricRegistry()
        reg.counter("c", "c").inc()
        reg.histogram("h", "h").observe(2.0)
        records = reg.collect()
        kinds = {r["metric"]: r["kind"] for r in records}
        assert kinds == {"c": "counter", "h": "histogram"}


class TestDisabledMode:
    def test_noop_telemetry_is_fully_disabled(self):
        t = NOOP_TELEMETRY
        assert not t.enabled
        # No sink exists: an unguarded call site fails loudly.
        assert (t.registry, t.tracer, t.health, t.audit, t.detect) == (None,) * 5
        # Every helper still bails on the one flag.
        assert t.begin("span") is None
        assert t.point("span") is None
        assert t.record("span", 0.0) is None
        t.end(None)
        t.bind("key", TraceContext(trace_id=1, span_id=1))
        assert t.lookup("key") is None
        assert t.evidence("vote-dissent", accused="e1", hard=True) is None
        assert t.now() == 0.0

    def test_enabled_telemetry_is_live(self):
        t = Telemetry()
        span = t.begin("work", pid="p1")
        assert span is not None
        with t.use(span.ctx):
            child = t.begin("inner", parent=t.current)
        t.end(child)
        t.end(span)
        assert child.trace_id == span.trace_id
        assert child.parent_id == span.span_id


class TestReservoirSampling:
    """Past the cap, histograms keep a uniform reservoir, not a prefix."""

    def test_late_run_shift_moves_percentiles(self):
        # First DEFAULT_SAMPLE_CAP observations around 1.0, then twice as
        # many around 100.0. Prefix-keeping (the old behavior) would report
        # p99 ~= 1.0 forever; a reservoir must be dominated by the late mode.
        reg = MetricRegistry()
        h = reg.histogram("lat", "latency").labels()
        for _ in range(DEFAULT_SAMPLE_CAP):
            h.observe(1.0)
        assert h.summary()["p99"] == pytest.approx(1.0)
        for _ in range(2 * DEFAULT_SAMPLE_CAP):
            h.observe(100.0)
        s = h.summary()
        assert s["p99"] == pytest.approx(100.0)
        assert s["p50"] == pytest.approx(100.0)
        # About 2/3 of retained samples should come from the late mode.
        late = sum(1 for v in h.samples if v == 100.0)
        assert 0.5 < late / len(h.samples) < 0.85

    def test_reservoir_is_deterministic_per_label_identity(self):
        def fill(reg):
            h = reg.histogram("lat", "latency", labels=("op",)).labels(op="add")
            for i in range(3 * DEFAULT_SAMPLE_CAP):
                h.observe(float(i))
            return h
        a = fill(MetricRegistry())
        b = fill(MetricRegistry())
        assert a.samples == b.samples
        assert a.sample_drops == b.sample_drops

    def test_different_labels_draw_different_reservoirs(self):
        reg = MetricRegistry()
        fam = reg.histogram("lat", "latency", labels=("op",))
        for i in range(3 * DEFAULT_SAMPLE_CAP):
            fam.labels(op="add").observe(float(i))
            fam.labels(op="sub").observe(float(i))
        assert fam.labels(op="add").samples != fam.labels(op="sub").samples

    def test_count_stays_exact_past_cap(self):
        reg = MetricRegistry()
        h = reg.histogram("lat", "latency").labels()
        for i in range(DEFAULT_SAMPLE_CAP + 500):
            h.observe(float(i))
        s = h.summary()
        assert s["count"] == DEFAULT_SAMPLE_CAP + 500
        assert len(h.samples) == DEFAULT_SAMPLE_CAP


class TestRegistryReset:
    def test_scoped_registries_do_not_share_state(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.counter("c", "c").inc(3)
        assert b.collect() == []
        b.counter("c", "c").inc(1)
        assert a.counter("c", "c").value == 3
