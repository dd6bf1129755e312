"""Streaming percentile estimators and SLO accounting units."""

import random

import pytest

from repro.serve import LatencyTracker, P2Quantile, TenantStats


def test_p2_exact_below_five_samples():
    est = P2Quantile(0.5)
    for x in (5.0, 1.0, 3.0):
        est.add(x)
    assert est.value == pytest.approx(3.0)


def test_p2_tracks_uniform_median():
    rng = random.Random(0)
    est = P2Quantile(0.5)
    for _ in range(5000):
        est.add(rng.random())
    assert est.value == pytest.approx(0.5, abs=0.05)


def test_p2_tracks_tail_quantile_of_exponential():
    rng = random.Random(1)
    est = P2Quantile(0.95)
    samples = []
    for _ in range(20000):
        x = rng.expovariate(1.0)
        est.add(x)
        samples.append(x)
    exact = sorted(samples)[int(0.95 * len(samples))]
    assert est.value == pytest.approx(exact, rel=0.1)


def test_p2_rejects_degenerate_quantiles_and_empty_stream():
    with pytest.raises(ValueError):
        P2Quantile(0.0)
    with pytest.raises(ValueError):
        P2Quantile(1.0)
    with pytest.raises(ValueError):
        _ = P2Quantile(0.5).value


def test_tracker_exact_percentiles_when_retained():
    tracker = LatencyTracker()
    for x in range(1, 101):
        tracker.add(float(x))
    assert tracker.percentile(0.50) == pytest.approx(50.5)
    assert tracker.percentile(0.99) == pytest.approx(99.01)
    assert tracker.mean() == pytest.approx(50.5)
    assert tracker.max == 100.0
    # Arbitrary quantiles work in retained mode.
    assert tracker.percentile(0.25) == pytest.approx(25.75)


def test_tracker_streaming_mode_bounds_memory():
    tracker = LatencyTracker(retain=False)
    rng = random.Random(2)
    for _ in range(10000):
        tracker.add(rng.expovariate(1.0))
    assert tracker._samples is None
    # Tracked quantiles answer from P2; untracked ones raise.
    assert tracker.percentile(0.5) > 0
    with pytest.raises(KeyError):
        tracker.percentile(0.25)


def test_tracker_streaming_estimate_close_to_exact():
    tracker = LatencyTracker()
    rng = random.Random(3)
    for _ in range(20000):
        tracker.add(rng.expovariate(1.0))
    for q in (0.5, 0.95, 0.99):
        assert tracker.streaming_estimate(q) == pytest.approx(
            tracker.percentile(q), rel=0.15
        )


def test_tracker_summary_and_errors():
    tracker = LatencyTracker()
    with pytest.raises(ValueError):
        tracker.mean()
    with pytest.raises(ValueError):
        tracker.percentile(0.5)
    with pytest.raises(ValueError):
        tracker.add(-1.0)
    tracker.add(2.0)
    summary = tracker.summary()
    assert summary["count"] == 1.0
    assert summary["p99"] == 2.0


def test_tenant_stats_goodput_excludes_failures_and_violations():
    stats = TenantStats(name="t", completed=10, failed=2, violations=3)
    assert stats.goodput_rps(5.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        stats.goodput_rps(0.0)


def _depth_result(samples, elapsed):
    from repro.serve.slo import LatencyTracker, QueueSample, ServeResult

    return ServeResult(
        tenants={},
        latency=LatencyTracker(),
        timeline=[
            QueueSample(time=t, queued={"a": depth}, inflight=0)
            for t, depth in samples
        ],
        elapsed=elapsed,
    )


def test_mean_queue_depth_is_time_weighted_under_uneven_spacing():
    # Depth 10 holds for 1s, depth 0 for 9s: the time-weighted mean is
    # 1.0, but dense sampling of the busy second (unweighted mean 6.7)
    # used to drag the old estimate toward the burst.
    result = _depth_result(
        [(0.0, 10), (0.5, 10), (1.0, 0), (10.0, 0)], elapsed=10.0
    )
    assert result.mean_queue_depth() == pytest.approx(1.0)
    assert result.mean_sampled_queue_depth() == pytest.approx(5.0)


def test_mean_queue_depth_extends_last_sample_to_elapsed():
    result = _depth_result([(0.0, 4), (1.0, 2)], elapsed=4.0)
    # 4 for 1s, then 2 for the remaining 3s.
    assert result.mean_queue_depth() == pytest.approx((4 + 2 * 3) / 4)


def test_mean_queue_depth_empty_and_single_sample():
    assert _depth_result([], elapsed=1.0).mean_queue_depth() == 0.0
    single = _depth_result([(0.0, 3)], elapsed=0.0)
    # Zero span: falls back to the plain average.
    assert single.mean_queue_depth() == pytest.approx(3.0)


def test_tracker_percentile_cache_survives_interleaved_adds():
    """The cached sorted view must be invalidated by every add, so
    percentile-query/add interleavings always answer from fresh data."""
    from repro.sim.tracing import exact_percentile

    rng = random.Random(11)
    tracker = LatencyTracker()
    shadow = []
    for _ in range(200):
        x = rng.expovariate(1.0)
        tracker.add(x)
        shadow.append(x)
        if len(shadow) % 7 == 0:
            for q in (0.5, 0.95, 0.99):
                assert tracker.percentile(q) == pytest.approx(
                    exact_percentile(sorted(shadow), q)
                )
    # Repeated queries with no adds in between reuse the cached sort.
    first = tracker.percentile(0.99)
    assert tracker.percentile(0.99) == first


# -- streaming estimate on demand ----------------------------------------


def _fresh_p2(q, samples):
    est = P2Quantile(q)
    for x in samples:
        est.add(x)
    return est.value


@pytest.mark.parametrize("seed", range(6))
def test_retained_streaming_estimate_equals_a_fresh_p2_over_the_samples(seed):
    """A retained tracker keeps no live P² state: streaming_estimate()
    replays the samples, and must land exactly where an estimator fed
    the same stream in the same order does — below five samples (the
    exact-start phase), mid-stream between adds, and at the end."""
    rng = random.Random(seed)
    tracker = LatencyTracker()
    shadow = []
    for n in range(1, 400):
        x = rng.expovariate(1.0) if n % 5 else rng.uniform(0.0, 0.1)
        tracker.add(x)
        shadow.append(x)
        if n < 6 or n % 37 == 0:
            for q in tracker.quantiles:
                assert tracker.streaming_estimate(q) == _fresh_p2(q, shadow)
    for q in tracker.quantiles:
        assert tracker.streaming_estimate(q) == _fresh_p2(q, shadow)


def test_retained_streaming_estimate_errors_match_a_live_estimator():
    tracker = LatencyTracker()
    with pytest.raises(ValueError):
        tracker.streaming_estimate(0.5)  # empty stream, as P2Quantile
    tracker.add(1.0)
    with pytest.raises(KeyError):
        tracker.streaming_estimate(0.25)  # not a tracked quantile
    with pytest.raises(ValueError):
        LatencyTracker(quantiles=(0.5, 1.0))  # validated without P² state


def test_streaming_tracker_keeps_live_estimators():
    """retain=False still feeds P² per add (it has nothing to replay)."""
    rng = random.Random(9)
    tracker = LatencyTracker(retain=False)
    shadow = []
    for _ in range(300):
        x = rng.expovariate(1.0)
        tracker.add(x)
        shadow.append(x)
    for q in tracker.quantiles:
        assert tracker.percentile(q) == _fresh_p2(q, shadow)
        assert tracker.streaming_estimate(q) == _fresh_p2(q, shadow)
