"""Tests for repro.telemetry: registry, traces, sampling, exporters.

Covers the registry's instrument semantics (counter monotonicity,
histogram bucket boundaries, gauge set/add, label identity), the
tracer's span timing and sampling determinism under a seeded RNG (ring
eviction and capacity checks live in ``test_tracing.py``), and both
exporters -- including a golden-file comparison and a
line-by-line Prometheus text-format validator that the integration
tests reuse against real instrumented runs.
"""

import json
import math
import re

import pytest

from repro import telemetry
from repro.telemetry import (
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    NULL_TRACER,
    Tracer,
    json_snapshot,
    prometheus_text,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


# ----------------------------------------------------------------------
# Counter semantics
# ----------------------------------------------------------------------


def test_counter_monotonic(registry):
    counter = registry.counter("requests_total")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)
    assert counter.value == 5


def test_counter_get_or_create_identity(registry):
    assert registry.counter("x_total") is registry.counter("x_total")


def test_counter_labels_create_distinct_series(registry):
    a = registry.counter("packets_total", fid=1)
    b = registry.counter("packets_total", fid=2)
    assert a is not b
    a.inc(3)
    b.inc(7)
    snap = registry.snapshot()
    assert snap["counters"]['packets_total{fid="1"}'] == 3
    assert snap["counters"]['packets_total{fid="2"}'] == 7


def test_instrument_type_conflict_raises(registry):
    registry.counter("thing")
    with pytest.raises(TypeError):
        registry.gauge("thing")
    with pytest.raises(TypeError):
        registry.histogram("thing")


# ----------------------------------------------------------------------
# The labels= mapping form (device-labeled fleet series)
# ----------------------------------------------------------------------


def test_labels_mapping_is_equivalent_to_kwargs(registry):
    via_mapping = registry.counter("requests_total", labels={"device": "sw0"})
    via_kwargs = registry.counter("requests_total", device="sw0")
    assert via_mapping is via_kwargs


def test_labels_mapping_merges_with_kwargs(registry):
    counter = registry.counter(
        "requests_total", labels={"device": "sw1"}, kind="admit"
    )
    counter.inc()
    snap = registry.snapshot()
    assert (
        snap["counters"]['requests_total{device="sw1",kind="admit"}'] == 1
    )


def test_conflicting_duplicate_label_raises(registry):
    with pytest.raises(ValueError, match="device"):
        registry.counter(
            "requests_total", labels={"device": "sw0"}, device="sw1"
        )
    # Agreeing duplicates are fine (the merge is a no-op).
    counter = registry.counter(
        "agree_total", labels={"device": "sw0"}, device="sw0"
    )
    assert counter is registry.counter("agree_total", device="sw0")


def test_gauge_and_histogram_accept_labels(registry):
    registry.gauge("shard_util", labels={"device": "sw2"}).set(0.5)
    registry.histogram(
        "lat", buckets=(1.0,), labels={"device": "sw2"}
    ).observe(0.2)
    snap = registry.snapshot()
    assert snap["gauges"]['shard_util{device="sw2"}'] == 0.5
    assert snap["histograms"]['lat{device="sw2"}']["count"] == 1


def test_device_labels_render_in_prometheus_text(registry):
    for device in ("sw1", "sw0"):
        registry.counter(
            "fleet_total", help="Per-device series", labels={"device": device}
        ).inc()
    text = prometheus_text(registry)
    assert 'fleet_total{device="sw0"} 1' in text
    assert 'fleet_total{device="sw1"} 1' in text
    assert_valid_prometheus(text)


def test_null_registry_accepts_labels_form():
    null = NullRegistry()
    null.counter("x_total", labels={"device": "sw0"}).inc()
    null.gauge("g", labels={"device": "sw0"}).set(1)
    null.histogram("h", labels={"device": "sw0"}).observe(1.0)
    assert null.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


# ----------------------------------------------------------------------
# Gauge semantics
# ----------------------------------------------------------------------


def test_gauge_set_and_add(registry):
    gauge = registry.gauge("queue_depth")
    gauge.set(10)
    assert gauge.value == 10
    gauge.add(5)
    assert gauge.value == 15
    gauge.add(-20)
    assert gauge.value == -5  # gauges may go negative
    gauge.set(0)
    assert gauge.value == 0


# ----------------------------------------------------------------------
# Histogram semantics
# ----------------------------------------------------------------------


def test_histogram_bucket_boundaries(registry):
    hist = registry.histogram("latency", buckets=(1.0, 2.0, 4.0))
    # 'le' semantics: a value equal to a bound lands in that bucket.
    hist.observe(1.0)
    hist.observe(1.5)
    hist.observe(2.0)
    hist.observe(4.0)
    hist.observe(100.0)  # overflow -> +Inf bucket
    assert hist.bucket_counts == [1, 2, 1, 1]
    assert hist.count == 5
    assert hist.sum == pytest.approx(108.5)


def test_histogram_rejects_bad_buckets(registry):
    with pytest.raises(ValueError):
        registry.histogram("bad", buckets=())
    with pytest.raises(ValueError):
        registry.histogram("bad2", buckets=(1.0, 1.0))
    with pytest.raises(ValueError):
        registry.histogram("bad3", buckets=(2.0, 1.0))


def test_histogram_percentiles_interpolate(registry):
    hist = registry.histogram("t", buckets=(10.0, 20.0, 40.0))
    for _ in range(50):
        hist.observe(5.0)  # first bucket
    for _ in range(50):
        hist.observe(15.0)  # second bucket
    # p50 sits at the first bucket's upper edge.
    assert hist.quantile(0.50) == pytest.approx(10.0)
    # p95 interpolates inside (10, 20].
    assert 10.0 < hist.quantile(0.95) <= 20.0
    summary = hist.summary()
    assert summary["count"] == 100
    assert summary["mean"] == pytest.approx(10.0)
    assert set(summary) == {"count", "sum", "mean", "p50", "p95", "p99"}


def test_histogram_percentiles_empty_and_overflow(registry):
    hist = registry.histogram("t", buckets=(1.0, 2.0))
    assert math.isnan(hist.quantile(0.5))
    hist.observe(50.0)  # only observation is in +Inf
    # Clamps to the highest finite bound, like histogram_quantile.
    assert hist.quantile(0.99) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        hist.quantile(1.5)


# ----------------------------------------------------------------------
# Null registry and the process default
# ----------------------------------------------------------------------


def test_null_registry_is_inert():
    null = NullRegistry()
    assert null.enabled is False
    counter = null.counter("anything", fid=9)
    counter.inc(100)
    null.gauge("g").set(5)
    null.histogram("h").observe(1.0)
    assert null.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
    assert prometheus_text(null) == ""


def test_process_default_registry_roundtrip():
    assert telemetry.get_registry() is NULL_REGISTRY
    registry = MetricsRegistry()
    previous = telemetry.set_registry(registry)
    try:
        assert previous is NULL_REGISTRY
        assert telemetry.get_registry() is registry
        assert telemetry.resolve(None) is registry
        other = MetricsRegistry()
        assert telemetry.resolve(other) is other
    finally:
        telemetry.set_registry(None)
    assert telemetry.get_registry() is NULL_REGISTRY


def test_collectors_run_before_snapshot(registry):
    state = {"depth": 7}
    registry.register_collector(
        lambda reg: reg.gauge("depth").set(state["depth"])
    )
    assert registry.snapshot()["gauges"]["depth"] == 7
    state["depth"] = 3
    assert registry.snapshot()["gauges"]["depth"] == 3


# ----------------------------------------------------------------------
# Span timing and packet sampling
# ----------------------------------------------------------------------


def test_trace_span_measures_duration():
    tracer = Tracer(capacity=8)
    with tracer.span("work", fid=1) as span:
        span.set(extra="late")
    (event,) = tracer.spans()
    assert event.name == "work"
    assert event.duration_s >= 0.0
    assert event.attrs == {"fid": 1, "extra": "late"}


def test_sampler_deterministic_under_seed():
    first = Tracer(sample_rate=0.5, seed=1234)
    second = Tracer(sample_rate=0.5, seed=1234)
    decisions_a = [first.should_sample() for _ in range(200)]
    decisions_b = [second.should_sample() for _ in range(200)]
    assert decisions_a == decisions_b
    assert any(decisions_a) and not all(decisions_a)
    # A different seed picks different packets.
    third = Tracer(sample_rate=0.5, seed=99)
    assert [third.should_sample() for _ in range(200)] != decisions_a


def test_sampler_rate_edges():
    never = Tracer(sample_rate=0.0, seed=7)
    always = Tracer(sample_rate=1.0, seed=7)
    assert not any(never.should_sample() for _ in range(100))
    assert all(always.should_sample() for _ in range(100))
    # Rates 0 and 1 short-circuit without consuming RNG state: dialled
    # to 0.5 afterwards, both draw the sequence a fresh tracer draws.
    fresh = Tracer(sample_rate=0.5, seed=7)
    expected = [fresh.should_sample() for _ in range(50)]
    for tracer in (never, always):
        tracer.sample_rate = 0.5
        assert [tracer.should_sample() for _ in range(50)] == expected
    # The default rate samples nothing, and the null tracer never does.
    assert not Tracer().should_sample()
    assert not NULL_TRACER.should_sample()
    with pytest.raises(ValueError):
        Tracer(sample_rate=1.5)
    with pytest.raises(ValueError):
        Tracer(sample_rate=-0.1)


# ----------------------------------------------------------------------
# Prometheus exposition: validator + golden output
# ----------------------------------------------------------------------

_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABELS = r'\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\n]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\n]*")*\}'
_VALUE = r"(-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]Inf|NaN)"
_SAMPLE_RE = re.compile(rf"^{_METRIC_NAME}({_LABELS})? {_VALUE}$")
_HELP_RE = re.compile(rf"^# HELP {_METRIC_NAME} [^\n]*$")
_TYPE_RE = re.compile(rf"^# TYPE {_METRIC_NAME} (counter|gauge|histogram)$")


def assert_valid_prometheus(text: str) -> None:
    """Line-by-line validation of Prometheus text exposition format.

    Checks every line parses, every sample's family has a preceding
    # TYPE declaration, and histogram bucket series are cumulative and
    end with +Inf.
    """
    typed = {}
    bucket_series = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("# HELP "):
            assert _HELP_RE.match(line), f"line {lineno}: bad HELP: {line!r}"
            continue
        if line.startswith("# TYPE "):
            assert _TYPE_RE.match(line), f"line {lineno}: bad TYPE: {line!r}"
            _, _, name, mtype = line.split(" ")
            assert name not in typed, f"line {lineno}: duplicate TYPE for {name}"
            typed[name] = mtype
            continue
        assert not line.startswith("#"), f"line {lineno}: bad comment: {line!r}"
        assert _SAMPLE_RE.match(line), f"line {lineno}: bad sample: {line!r}"
        name = re.match(_METRIC_NAME, line).group(0)
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in typed or family in typed, (
            f"line {lineno}: sample {name} before its TYPE declaration"
        )
        if name.endswith("_bucket"):
            series_key = re.sub(r'le="[^"]*",?', "", line.split(" ")[0])
            value = float(line.rsplit(" ", 1)[1])
            history = bucket_series.setdefault(series_key, [])
            if history:
                assert value >= history[-1], (
                    f"line {lineno}: non-cumulative bucket: {line!r}"
                )
            history.append(value)
            if 'le="+Inf"' not in line:
                assert "le=" in line, f"line {lineno}: bucket missing le"
    assert typed, "exposition must declare at least one metric family"


def test_prometheus_golden_output():
    registry = MetricsRegistry()
    registry.counter(
        "packets_total", help="Packets seen", fid=1
    ).inc(3)
    registry.counter("packets_total", fid=2).inc(1)
    registry.gauge("queue_depth", help="Digest queue depth").set(4)
    hist = registry.histogram(
        "alloc_seconds", buckets=(0.1, 1.0), help="Alloc latency"
    )
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)
    expected = "\n".join(
        [
            "# HELP alloc_seconds Alloc latency",
            "# TYPE alloc_seconds histogram",
            'alloc_seconds_bucket{le="0.1"} 1',
            'alloc_seconds_bucket{le="1"} 2',
            'alloc_seconds_bucket{le="+Inf"} 3',
            "alloc_seconds_sum 5.55",
            "alloc_seconds_count 3",
            "# HELP packets_total Packets seen",
            "# TYPE packets_total counter",
            'packets_total{fid="1"} 3',
            'packets_total{fid="2"} 1',
            "# HELP queue_depth Digest queue depth",
            "# TYPE queue_depth gauge",
            "queue_depth 4",
        ]
    ) + "\n"
    text = prometheus_text(registry)
    assert text == expected
    assert_valid_prometheus(text)


def test_json_snapshot_shape(registry):
    registry.counter("c_total").inc(2)
    registry.histogram("h", buckets=(1.0,)).observe(0.5)
    tracer = Tracer(capacity=4)
    tracer.finish(tracer.start("evt", fid=1))
    data = json_snapshot(registry, trace=tracer)
    # Must round-trip through JSON unchanged.
    rehydrated = json.loads(json.dumps(data))
    assert rehydrated["counters"]["c_total"] == 2
    hist = rehydrated["histograms"]["h"]
    assert hist["count"] == 1
    assert hist["buckets"] == {"1.0": 1, "+Inf": 0}
    traces = rehydrated["traces"]
    assert (traces["capacity"], traces["recorded"], traces["dropped"]) == (4, 1, 0)
    assert traces["events"][0]["name"] == "evt"
    assert traces["events"][0]["span_id"] == "s-00000001"
    assert traces["events"][0]["attrs"]["fid"] == 1
