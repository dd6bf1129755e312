"""Percentile estimators, the latency record and SLO accounting units."""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import DomainCrash
from repro.resilience import RecoveryScenarioConfig, run_recovery_scenario
from repro.serve import (
    LatencyTracker,
    P2Quantile,
    QueueSample,
    QueueTimeline,
    TenantStats,
)
from repro.sim.tracing import exact_percentile
from repro.telemetry import time_weighted_mean

from ..control.test_disarmed_identity import golden_serve_result


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
    # Any quantile is exact, tracked or not.
    assert tracker.percentile(0.25) == pytest.approx(25.75)


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
    from repro.serve.slo import ServeResult

    return ServeResult(
        tenants={},
        latency=LatencyTracker(),
        timeline=QueueTimeline(
            [t for t, _ in samples], [0.0] * len(samples),
            {"a": [float(depth) for _, depth in samples]},
        ),
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


def test_tracker_validates_and_dedupes_quantiles():
    with pytest.raises(ValueError, match=r"quantile must be in \(0, 1\)"):
        LatencyTracker(quantiles=(0.5, 1.0))
    with pytest.raises(ValueError):
        LatencyTracker(quantiles=(float("nan"),))
    tracker = LatencyTracker(quantiles=(0.99, 0.5, 0.99))
    assert tracker.quantiles == (0.99, 0.5)
    tracker.add(1.0)
    assert list(tracker.summary()) == ["count", "mean", "max", "p99", "p50"]


# -- the windowed tail ---------------------------------------------------


def test_tail_reads_the_last_window_once_min_samples_arrived():
    tracker = LatencyTracker()
    for x in (9.0, 1.0, 2.0):
        tracker.add(x)
    assert tracker.tail(0.5, window=2, min_samples=4) is None
    tracker.add(3.0)
    # The window holds the last two samples, 2.0 and 3.0.
    assert tracker.tail(0.5, window=2, min_samples=4) == 2.5
    assert tracker.tail(0.99, window=4, min_samples=4) == pytest.approx(
        exact_percentile([1.0, 2.0, 3.0, 9.0], 0.99)
    )


#: Latencies with repeats and zeros: a small pool drawn with replacement.
_LATENCIES = st.sampled_from([0.0, 0.0, 1e-6, 2.5e-3, 2.5e-3, 7e-3, 0.03, 1.0])


_QUANTILES = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(deadline=None)
@given(
    stream=st.lists(
        st.one_of(_LATENCIES, st.floats(0.0, 1.0)), max_size=120
    ),
    window=st.integers(1, 40),
    data=st.data(),
    q=_QUANTILES,
)
def test_tail_equals_the_sliding_window_it_replaced(stream, window, data, q):
    """``tail`` against a verbatim copy of the per-consumer window the
    brownout ladder and the controller each kept: a
    ``deque(maxlen=window)`` fed every sample, None while shorter than
    ``min_samples``, else the exact percentile of its sorted contents.

    ``tail`` keeps its last answer until the next sample, so between
    adds the test also reads it again, and with other ``(q, window,
    min_samples)``, each answer against the slice-and-sort definition
    ``tail`` had before that memo."""
    min_samples = data.draw(st.integers(1, window), label="min_samples")
    tracker = LatencyTracker()
    reference = deque(maxlen=window)
    samples = []

    def reference_tail():
        if len(reference) < min_samples:
            return None
        return exact_percentile(sorted(reference), q)

    def sliced_tail(read_q, read_window, read_min):
        if len(samples) < read_min:
            return None
        return exact_percentile(sorted(samples[-read_window:]), read_q)

    reads = st.lists(
        st.tuples(
            st.one_of(st.just(q), _QUANTILES),
            st.one_of(st.just(window), st.integers(1, 40)),
            st.integers(1, 40),
        ),
        max_size=3,
    )
    assert tracker.tail(q, window, min_samples) is None
    for x in stream:
        tracker.add(x)
        reference.append(x)
        samples.append(x)
        assert tracker.tail(q, window, min_samples) == reference_tail()
        for other_q, other_window, other_min in data.draw(reads):
            other_min = min(other_min, other_window)
            assert tracker.tail(other_q, other_window, other_min) == (
                sliced_tail(other_q, other_window, other_min)
            )
        assert tracker.tail(q, window, min_samples) == reference_tail()


def stored_timeline(result):
    """The timeline as the frontend stored it before it became a view:
    one :class:`QueueSample` per ``inflight`` gauge sample."""
    registry = result.telemetry.metrics
    per_tenant = {
        name: registry.gauge("queue_depth", tenant=name).samples
        for name in result.tenants
    }
    return [
        QueueSample(
            time=time,
            queued={
                name: int(samples[i][1])
                for name, samples in per_tenant.items()
            },
            inflight=int(value),
        )
        for i, (time, value) in enumerate(registry.gauge("inflight").samples)
    ]


def recovery_result():
    """Four tenants through a DRX card's crash and revival."""
    return run_recovery_scenario(RecoveryScenarioConfig(
        offered_rps=560.0,
        crashes=(DomainCrash("drx.s0", at_s=0.05, revive_at_s=0.08),),
        n_tenants=4,
        requests_per_tenant=40,
        seed=0,
    )).serve


@pytest.mark.parametrize(
    "make", [golden_serve_result, recovery_result],
    ids=["serve-golden", "recovery"],
)
def test_timeline_view_equals_the_stored_list(make):
    result = make()
    stored = stored_timeline(result)
    view = result.timeline
    assert isinstance(view, QueueTimeline) and len(stored) > 10
    assert len(view) == len(stored)
    assert list(view) == stored
    middle = len(stored) // 2
    assert [view[0], view[middle], view[-1]] == [
        stored[0], stored[middle], stored[-1]
    ]
    assert view[2:5] == stored[2:5]
    with pytest.raises(IndexError):
        view[len(stored)]
    totals = [s.total_queued for s in stored]
    depths = (
        result.max_queue_depth(), result.mean_queue_depth(),
        result.mean_sampled_queue_depth(),
    )
    want = (
        max(totals),
        time_weighted_mean(
            [(s.time, float(s.total_queued)) for s in stored],
            end=result.elapsed,
        ),
        sum(totals) / len(totals),
    )
    assert [(type(x), x) for x in depths] == [(type(x), x) for x in want]
    assert max(totals) > 0
