"""Metrics registry: counters, gauges, histograms, time weighting."""

import math
from array import array

import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    time_weighted_mean,
)


def test_time_weighted_mean_lvcf():
    # 10 holds for 1s, 0 for the remaining 9s.
    points = [(0.0, 10.0), (1.0, 0.0)]
    assert time_weighted_mean(points, end=10.0) == pytest.approx(1.0)


def test_time_weighted_mean_ignores_sampling_density():
    sparse = [(0.0, 4.0), (2.0, 2.0)]
    dense = [(0.0, 4.0), (0.5, 4.0), (1.0, 4.0), (1.5, 4.0), (2.0, 2.0)]
    assert time_weighted_mean(sparse, end=4.0) == pytest.approx(
        time_weighted_mean(dense, end=4.0)
    )


def test_time_weighted_mean_degenerate_cases():
    assert time_weighted_mean([]) == 0.0
    # Zero span: plain average.
    assert time_weighted_mean([(1.0, 3.0)]) == 3.0
    assert time_weighted_mean([(1.0, 2.0), (1.0, 4.0)]) == 3.0


def test_counter_monotonic():
    counter = Counter("retries", ())
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1.0)


def test_gauge_ordering_and_aggregates():
    gauge = Gauge("depth", ())
    gauge.sample(0.0, 4.0)
    gauge.sample(1.0, 2.0)
    assert gauge.last() == 2.0
    assert gauge.max() == 4.0
    assert gauge.time_weighted_mean(end=4.0) == pytest.approx(2.5)
    with pytest.raises(ValueError, match="backwards"):
        gauge.sample(0.5, 1.0)


def test_gauge_keeps_its_samples_as_two_columns():
    gauge = Gauge("depth", ())
    gauge.sample(0, 3)  # a time is kept as given, a value made a float
    gauge.sample(0.5, -0.0)
    gauge.sample(1.5, math.inf)
    assert gauge.times == [0, 0.5, 1.5] and type(gauge.times[0]) is int
    assert gauge.values == array("d", [3.0, -0.0, math.inf])
    assert math.copysign(1.0, gauge.values[1]) == -1.0
    assert gauge.samples == [(0, 3.0), (0.5, -0.0), (1.5, math.inf)]
    assert (gauge.last(), gauge.max()) == (math.inf, math.inf)
    before = (list(gauge.times), gauge.values.tolist())
    with pytest.raises(ValueError, match="sample value is NaN"):
        gauge.sample(2.0, math.nan)
    with pytest.raises(ValueError, match="backwards or is NaN"):
        gauge.sample(1.0, 1.0)
    with pytest.raises(ValueError, match="backwards or is NaN"):
        gauge.sample(math.nan, 1.0)
    assert (gauge.times, gauge.values.tolist()) == before


def test_gauge_empty_raises():
    gauge = Gauge("depth", ())
    with pytest.raises(ValueError):
        gauge.last()
    with pytest.raises(ValueError):
        gauge.max()


def test_histogram_buckets_and_overflow():
    hist = Histogram("lat", (), bounds=(1.0, 2.0))
    for x in (0.5, 1.5, 1.5, 9.0):
        hist.observe(x)
    assert hist.counts == [1, 2, 1]
    assert hist.count == 4
    assert hist.mean() == pytest.approx((0.5 + 1.5 + 1.5 + 9.0) / 4)
    with pytest.raises(ValueError, match="ascending"):
        Histogram("bad", (), bounds=(2.0, 1.0))


def test_registry_get_or_create_by_name_and_labels():
    registry = MetricsRegistry()
    a = registry.counter("arrivals", tenant="app0")
    b = registry.counter("arrivals", tenant="app0")
    c = registry.counter("arrivals", tenant="app1")
    assert a is b and a is not c
    assert registry.gauge("depth") is registry.gauge("depth")
    assert registry.histogram("lat") is registry.histogram("lat")


def test_registry_iteration_is_insertion_ordered():
    registry = MetricsRegistry()
    registry.counter("z")
    registry.counter("a")
    assert [c.name for c in registry.counters()] == ["z", "a"]
