"""Unit tests for the observability toolkit: clock, metrics registry,
trace trees, structured logging, and the canonical metric-name schema."""

import threading

import pytest

from repro.obs import (
    CapturingStream,
    MetricsRegistry,
    NOOP_SPAN,
    Span,
    Trace,
    Tracer,
    bind_request_id,
    configure_logging,
    current_request_id,
    current_span,
    get_logger,
    new_request_id,
    record_span,
    span,
    timer,
    wall_time,
)
from repro.obs.schema import ALL_METRIC_NAMES


class TestClock:
    def test_timer_measures_block(self):
        with timer() as t:
            pass
        assert t.seconds >= 0.0

    def test_timer_finalizes_on_exception(self):
        t = None
        with pytest.raises(ValueError):
            with timer() as t:
                raise ValueError("boom")
        frozen = t.seconds
        assert frozen >= 0.0
        assert t.seconds == frozen  # finalized, not still ticking

    def test_timer_reads_live_before_exit(self):
        t = timer()  # starts at construction, no __enter__ needed
        first = t.seconds
        second = t.seconds
        assert second >= first >= 0.0

    def test_wall_time_is_epoch_seconds(self):
        assert wall_time() > 1_500_000_000  # after 2017; sanity only


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc()
        registry.counter("c_total").inc(2.5)
        assert registry.value("c_total") == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c_total").inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.value == 4.0

    def test_labels_create_distinct_children(self):
        registry = MetricsRegistry()
        registry.counter("c_total", {"kind": "a"}).inc()
        registry.counter("c_total", {"kind": "b"}).inc(2)
        assert registry.value("c_total", {"kind": "a"}) == 1
        assert registry.value("c_total", {"kind": "b"}) == 2
        assert registry.total("c_total") == 3

    def test_same_labels_same_child(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", {"a": 1, "b": 2})
        second = registry.counter("c_total", {"b": 2, "a": 1})
        assert first is second  # order-insensitive label key

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError):
            registry.gauge("m")

    def test_missing_reads_are_zero(self):
        registry = MetricsRegistry()
        assert registry.value("nope") == 0.0
        assert registry.total("nope") == 0.0
        assert registry.summary("nope")["count"] == 0


class TestHistogram:
    def test_count_sum_max_exact(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 9.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(14.0)
        assert hist.max == 9.0

    def test_percentiles_are_clamped_to_max(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        hist.observe(0.2)
        hist.observe(0.3)
        assert hist.percentile(99.0) <= hist.max

    def test_percentile_ordering(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for i in range(100):
            hist.observe(i / 200.0)
        s = hist.summary()
        assert s["p50"] <= s["p95"] <= s["p99"] <= s["max"]

    def test_family_merge_across_labels(self):
        registry = MetricsRegistry()
        registry.histogram("h", {"kind": "a"}).observe(1.0)
        registry.histogram("h", {"kind": "b"}).observe(3.0)
        merged = registry.summary("h")
        assert merged["count"] == 2
        assert merged["sum"] == pytest.approx(4.0)
        assert merged["max"] == 3.0
        assert registry.summary("h", {"kind": "a"})["count"] == 1

    def test_bucket_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_histogram_labels_listing(self):
        registry = MetricsRegistry()
        registry.histogram("h", {"kind": "a"}).observe(1.0)
        registry.histogram("h", {"kind": "b"}).observe(1.0)
        kinds = sorted(d["kind"] for d in registry.histogram_labels("h"))
        assert kinds == ["a", "b"]


class TestExport:
    def test_prometheus_text_shape(self):
        registry = MetricsRegistry()
        registry.counter("repro_demo_total", {"kind": "x"},
                         help="demo counter").inc(2)
        registry.histogram("repro_demo_seconds", buckets=(0.1, 1.0)).observe(0.05)
        text = registry.render_prometheus()
        assert "# HELP repro_demo_total demo counter" in text
        assert "# TYPE repro_demo_total counter" in text
        assert 'repro_demo_total{kind="x"} 2' in text
        assert "# TYPE repro_demo_seconds histogram" in text
        assert 'repro_demo_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_demo_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_demo_seconds_count 1" in text
        assert text.endswith("\n")

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", {"path": 'a"b\\c'}).inc()
        text = registry.render_prometheus()
        assert 'path="a\\"b\\\\c"' in text

    def test_snapshot_is_json_safe(self):
        import json
        registry = MetricsRegistry()
        registry.counter("c_total", {"kind": "a"}).inc()
        registry.histogram("h").observe(0.2)
        snap = registry.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["c_total"]["type"] == "counter"
        assert snap["h"]["values"][0]["count"] == 1

    def test_collectors_run_before_export(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        collector = registry.register_collector(lambda: gauge.set(42))
        assert registry.snapshot()["g"]["values"][0]["value"] == 42
        gauge.set(0)
        registry.unregister_collector(collector)
        assert registry.snapshot()["g"]["values"][0]["value"] == 0

    def test_concurrent_increments_lose_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        hist = registry.histogram("h")

        def work():
            for _ in range(500):
                counter.inc()
                hist.observe(0.001)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.value("c_total") == 8 * 500
        assert registry.summary("h")["count"] == 8 * 500


class TestTrace:
    def test_tracer_roots_a_trace(self):
        tracer = Tracer()
        with tracer.span("query", graph="g") as root:
            assert root.trace is not None
            assert current_span() is root
            with span("inner", depth=1):
                pass
            record_span("measured", 0.25, what="pool")
        assert current_span() is None
        trace = root.trace
        assert trace.root is root
        assert len(trace.request_id) == 16
        names = [s.name for s in trace.walk()]
        assert names == ["query", "inner", "measured"]
        assert trace.find("measured")[0].duration_s == 0.25
        assert root.duration_s > 0.0

    def test_ambient_span_is_noop_outside_trace(self):
        with span("orphan") as node:
            assert node is NOOP_SPAN
        assert current_span() is None

    def test_disabled_tracer_hands_out_noop(self):
        tracer = Tracer(enabled=False)
        with tracer.span("query") as root:
            assert root is NOOP_SPAN
            assert root.trace is None

    def test_exception_tags_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("query") as root:
                raise RuntimeError("boom")
        assert root.tags["error"] == "RuntimeError"

    def test_serialization_roundtrip(self):
        tracer = Tracer()
        with tracer.span("query", graph="g") as root:
            with span("child", index=1):
                pass
        doc = root.trace.as_dict()
        back = Trace.from_dict(doc)
        assert back.request_id == root.trace.request_id
        assert [s.name for s in back.walk()] == ["query", "child"]
        assert back.root.tags["graph"] == "g"

    def test_adopt_attaches_remote_tree(self):
        remote = Trace(Span("query", duration_s=0.5))
        tracer = Tracer()
        with tracer.span("router.query") as root:
            root.adopt(remote, shard="s1")
        adopted = root.trace.find("query")[0]
        assert adopted.tags["shard"] == "s1"
        assert adopted.duration_s == 0.5

    def test_request_id_binding_and_inheritance(self):
        assert current_request_id() is None
        rid = new_request_id()
        with bind_request_id(rid):
            assert current_request_id() == rid
            with Tracer().span("query") as root:
                pass
            assert root.trace.request_id == rid  # ambient id wins
        assert current_request_id() is None

    def test_render_is_printable(self):
        with Tracer().span("query") as root:
            with span("child"):
                pass
        text = root.trace.render()
        assert "query" in text and "child" in text


class TestLogs:
    def test_json_lines_carry_request_id_and_extra(self):
        stream = CapturingStream()
        configure_logging(stream=stream)
        try:
            log = get_logger("test.obs")
            with bind_request_id("feedc0de00000000"):
                log.info("served", extra={"endpoint": "/x", "status": 200})
            log.info("no rid")
            records = stream.records()
        finally:
            configure_logging(stream=CapturingStream())
        assert records[0]["message"] == "served"
        assert records[0]["logger"] == "repro.test.obs"
        assert records[0]["request_id"] == "feedc0de00000000"
        assert records[0]["endpoint"] == "/x"
        assert records[0]["status"] == 200
        assert "request_id" not in records[1]

    def test_configure_is_idempotent(self):
        first = CapturingStream()
        second = CapturingStream()
        logger = configure_logging(stream=first)
        configure_logging(stream=second)
        try:
            get_logger("test.obs.idem").info("once")
        finally:
            configure_logging(stream=CapturingStream())
        assert first.records() == []
        assert len(second.records()) == 1
        assert sum(getattr(h, "_repro_obs_handler", False)
                   for h in logger.handlers) <= 1


class TestSchema:
    def test_metric_names_are_prefixed_snake_case(self):
        assert ALL_METRIC_NAMES  # catalog is non-empty
        for constant, name in ALL_METRIC_NAMES.items():
            assert constant.startswith("METRIC_")
            assert name.startswith("repro_"), name
            assert name == name.lower()
