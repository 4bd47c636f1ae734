"""Unit tests: counters, gauges, and fixed-bucket histogram edge cases."""

import math

import pytest

from repro.observability import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def test_counter_accumulates_and_rejects_negative():
    counter = Counter("c")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1.0)


def test_gauge_moves_both_ways():
    gauge = Gauge("g")
    gauge.set(4.0)
    gauge.add(-6.0)
    assert gauge.value == -2.0


def test_histogram_boundary_hit_is_upper_inclusive():
    """A value exactly on a boundary counts in the bucket it bounds."""
    histogram = Histogram("h", boundaries=(1.0, 2.0, 4.0))
    histogram.observe(1.0)   # == first boundary
    histogram.observe(2.0)   # == second boundary
    histogram.observe(1.5)
    assert histogram.counts == [1, 2, 0, 0]


def test_histogram_overflow_and_underflow_buckets():
    histogram = Histogram("h", boundaries=(1.0, 2.0))
    histogram.observe(-5.0)      # below every boundary: first bucket
    histogram.observe(1e12)      # beyond the last: overflow bucket
    assert histogram.counts == [1, 0, 1]
    assert histogram.count == 2
    assert histogram.sum == pytest.approx(1e12 - 5.0)


def test_histogram_rejects_bad_boundaries_and_nan():
    with pytest.raises(ValueError):
        Histogram("h", boundaries=())
    with pytest.raises(ValueError):
        Histogram("h", boundaries=(1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h", boundaries=(2.0, 1.0))
    histogram = Histogram("h", boundaries=(1.0,))
    with pytest.raises(ValueError):
        histogram.observe(float("nan"))


def test_histogram_quantile_estimates():
    histogram = Histogram("h", boundaries=(1.0, 10.0, 100.0))
    for value in (0.5, 0.5, 5.0, 50.0):
        histogram.observe(value)
    assert histogram.quantile(0.5) == 1.0
    assert histogram.quantile(1.0) == 100.0
    assert histogram.quantile(0.0) == 1.0
    with pytest.raises(ValueError):
        histogram.quantile(1.5)
    assert math.isnan(Histogram("e", boundaries=(1.0,)).quantile(0.5))


def test_histogram_quantile_overflow_reports_max_seen():
    histogram = Histogram("h", boundaries=(1.0,))
    histogram.observe(7.0)
    assert histogram.quantile(0.9) == 7.0


def test_registry_get_or_create_shares_instruments():
    registry = MetricsRegistry()
    a = registry.counter("x")
    b = registry.counter("x")
    assert a is b
    assert len(registry) == 1
    assert "x" in registry


def test_registry_hit_returns_the_instrument_as_created():
    registry = MetricsRegistry()
    gauge = registry.gauge("g", "first")
    histogram = registry.histogram("h", (1.0, 2.0), "first")
    # Description and boundaries apply only when the instrument is
    # created; a hit returns it unchanged.
    assert registry.gauge("g", "second") is gauge
    assert registry.histogram("h", (5.0, 50.0), "second") is histogram
    assert gauge.description == histogram.description == "first"
    assert histogram.boundaries == (1.0, 2.0)
    assert len(histogram.counts) == 3


def test_registry_kind_collision_is_an_error():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")
    with pytest.raises(TypeError):
        registry.histogram("x")


def test_registry_snapshot_is_sorted_and_json_able():
    import json

    registry = MetricsRegistry()
    registry.counter("z.total").inc(3)
    registry.gauge("a.level").set(1.5)
    registry.histogram("m.lat", boundaries=(1.0, 2.0)).observe(1.2)
    snapshot = registry.snapshot()
    assert list(snapshot) == ["counters", "gauges", "histograms"]
    assert snapshot["counters"] == {"z.total": 3.0}
    assert snapshot["gauges"] == {"a.level": 1.5}
    entry = snapshot["histograms"]["m.lat"]
    assert entry["counts"] == [0, 1, 0]
    assert entry["min"] == entry["max"] == 1.2
    json.dumps(snapshot)  # must not raise


def test_empty_histogram_snapshot_has_no_nonfinite_fields():
    registry = MetricsRegistry()
    registry.histogram("empty", boundaries=(1.0,))
    entry = registry.snapshot()["histograms"]["empty"]
    assert "min" not in entry and "max" not in entry
    assert entry["count"] == 0


def test_default_buckets_are_strictly_increasing():
    assert all(b2 > b1 for b1, b2 in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:]))
