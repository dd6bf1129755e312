"""Unit coverage for the control plane's sensing and policing pieces:
health windows, token buckets, and the brownout ladder."""

import pytest

from repro.resilience import (
    BrownoutConfig,
    BrownoutController,
    BrownoutTier,
    HealthConfig,
    HealthMonitor,
    TokenBucket,
    TokenBucketConfig,
)
from repro.serve import LatencyTracker
from repro.sim import Simulator
from repro.telemetry import Telemetry


# -- health monitor ------------------------------------------------------------


def test_unseen_target_is_healthy():
    monitor = HealthMonitor()
    assert monitor.health("drx.s0") == 1.0
    assert monitor.failure_fraction("drx.s0") == 0.0
    assert monitor.observations("drx.s0") == 0
    assert monitor.targets() == []


def test_health_is_windowed_success_fraction():
    monitor = HealthMonitor(config=HealthConfig(window=4))
    for ok in (True, True, False, False):
        monitor.record("drx.s0", ok)
    assert monitor.health("drx.s0") == 0.5
    # The window slides: two more failures evict the two successes.
    monitor.record("drx.s0", False)
    monitor.record("drx.s0", False)
    assert monitor.health("drx.s0") == 0.0
    assert monitor.observations("drx.s0") == 4  # saturates at window


def test_targets_are_independent_and_sorted():
    monitor = HealthMonitor()
    monitor.record("drx.s1", False)
    monitor.record("drx.s0", True)
    assert monitor.targets() == ["drx.s0", "drx.s1"]
    assert monitor.summary() == {"drx.s0": 1.0, "drx.s1": 0.0}


def test_reset_forgets_the_window():
    monitor = HealthMonitor()
    monitor.record("drx.s0", False)
    monitor.reset("drx.s0")
    assert monitor.health("drx.s0") == 1.0
    assert monitor.observations("drx.s0") == 0


def test_monitor_publishes_metrics_into_telemetry():
    sim = Simulator()
    telemetry = Telemetry(sim)
    monitor = HealthMonitor(telemetry)
    monitor.record("drx.s0", True, latency_s=2e-3)
    monitor.record("drx.s0", False)
    registry = telemetry.metrics
    ok = registry.counter("drx_outcomes", target="drx.s0", ok="true")
    bad = registry.counter("drx_outcomes", target="drx.s0", ok="false")
    assert ok.value == 1 and bad.value == 1
    # The gauge timeline ends at the current health score.
    gauge = registry.gauge("health_score", target="drx.s0")
    assert gauge.last() == 0.5
    hist = registry.histogram("drx_leg_latency", target="drx.s0")
    assert hist.count == 1 and hist.sum == pytest.approx(2e-3)


# -- token bucket --------------------------------------------------------------


def test_bucket_starts_full_and_debits():
    bucket = TokenBucket(TokenBucketConfig(rate_per_s=10.0, burst=3.0))
    assert bucket.available(0.0) == 3.0
    assert bucket.try_take(0.0)
    assert bucket.try_take(0.0)
    assert bucket.try_take(0.0)
    assert not bucket.try_take(0.0)  # burst exhausted


def test_bucket_refills_at_rate_and_caps_at_burst():
    bucket = TokenBucket(TokenBucketConfig(rate_per_s=10.0, burst=3.0))
    for _ in range(3):
        bucket.try_take(0.0)
    # 0.05s * 10/s = 0.5 tokens: not enough for a whole request.
    assert not bucket.try_take(0.05)
    assert bucket.try_take(0.1)  # 1.0 accrued (0.5 kept + 0.5 new)
    # A long idle period cannot bank more than the burst.
    assert bucket.available(100.0) == 3.0


def test_bucket_initial_fill_and_validation():
    bucket = TokenBucket(
        TokenBucketConfig(rate_per_s=1.0, burst=5.0, initial=0.0)
    )
    assert not bucket.try_take(0.0)
    assert bucket.try_take(1.0)
    with pytest.raises(ValueError):
        TokenBucketConfig(rate_per_s=0.0)
    with pytest.raises(ValueError):
        TokenBucketConfig(rate_per_s=1.0, burst=0.5)
    with pytest.raises(ValueError):
        TokenBucketConfig(rate_per_s=1.0, burst=2.0, initial=3.0)


# -- brownout ladder -----------------------------------------------------------


BROWNOUT = BrownoutConfig(
    window=8,
    min_samples=4,
    quantile=0.99,
    escalate_at=1.0,
    deescalate_at=0.7,
    min_dwell_s=10e-3,
)


def ladder(config=BROWNOUT):
    """A ladder at a 50 ms SLO and the latency record it senses."""
    latency = LatencyTracker()
    return BrownoutController(50e-3, latency, config), latency


def fill(latency, value, n=8):
    for _ in range(n):
        latency.add(value)


def test_no_verdict_below_min_samples():
    controller, latency = ladder()
    fill(latency, 100e-3, n=3)
    assert controller.windowed_tail() is None
    assert controller.update(now=1.0) is None
    assert controller.tier is BrownoutTier.NORMAL


def test_escalates_one_tier_per_update_with_dwell():
    controller, latency = ladder()
    fill(latency, 100e-3)  # tail at 2x SLO
    assert controller.update(now=0.011) == (
        BrownoutTier.NORMAL, BrownoutTier.SHED_LOW,
    )
    # Still hot, but within the dwell window: no second step yet.
    assert controller.update(now=0.015) is None
    assert controller.update(now=0.022) == (
        BrownoutTier.SHED_LOW, BrownoutTier.COALESCE,
    )
    assert controller.update(now=0.033) == (
        BrownoutTier.COALESCE, BrownoutTier.FORCE_CPU,
    )
    # FORCE_CPU is the top: no further escalation.
    assert controller.update(now=0.044) is None
    assert [tier for _, tier in controller.history] == [
        BrownoutTier.SHED_LOW, BrownoutTier.COALESCE, BrownoutTier.FORCE_CPU,
    ]


def test_hysteresis_band_holds_tier():
    controller, latency = ladder()
    fill(latency, 100e-3)
    controller.update(now=0.011)
    assert controller.tier is BrownoutTier.SHED_LOW
    # Tail between deescalate (35ms) and escalate (50ms): hold.
    fill(latency, 40e-3)
    assert controller.update(now=0.1) is None
    assert controller.tier is BrownoutTier.SHED_LOW
    # Cool tail de-escalates one step.
    fill(latency, 10e-3)
    assert controller.update(now=0.2) == (
        BrownoutTier.SHED_LOW, BrownoutTier.NORMAL,
    )
    assert controller.update(now=0.3) is None  # floor


def test_max_tier_caps_the_ladder():
    config = BrownoutConfig(
        window=8, min_samples=4, min_dwell_s=0.0,
        max_tier=BrownoutTier.COALESCE,
    )
    controller, latency = ladder(config)
    fill(latency, 1.0)
    times = iter(range(1, 10))
    while controller.update(now=float(next(times))) is not None:
        pass
    assert controller.tier is BrownoutTier.COALESCE


def test_first_escalation_is_not_suppressed_by_the_initial_dwell():
    """Failing-first for the ``_last_change = 0.0`` bug: before any tier
    change there is nothing to dwell on, so a hot window escalates even
    at ``now < min_dwell_s``."""
    controller, latency = ladder()
    fill(latency, 100e-3)  # tail at 2x SLO
    assert controller.update(now=0.002) == (
        BrownoutTier.NORMAL, BrownoutTier.SHED_LOW,
    )
    # And the dwell *does* bind from that change onward.
    assert controller.update(now=0.004) is None


def test_set_tier_jumps_directly_and_honors_dwell():
    controller, _ = ladder()
    # A controller-picked tier may skip rungs (cheapest sufficient tier,
    # not one-step ladder walking), from t=0 on a fresh ladder.
    assert controller.set_tier(0.001, BrownoutTier.FORCE_CPU) == (
        BrownoutTier.NORMAL, BrownoutTier.FORCE_CPU,
    )
    # Within the dwell: no flapping, even controller-driven.
    assert controller.set_tier(0.005, BrownoutTier.NORMAL) is None
    assert controller.tier is BrownoutTier.FORCE_CPU
    # Past the dwell the override lands and history records both moves.
    assert controller.set_tier(0.012, BrownoutTier.NORMAL) == (
        BrownoutTier.FORCE_CPU, BrownoutTier.NORMAL,
    )
    assert [tier for _, tier in controller.history] == [
        BrownoutTier.FORCE_CPU, BrownoutTier.NORMAL,
    ]


def test_set_tier_respects_max_tier_and_no_ops_on_same_tier():
    config = BrownoutConfig(
        window=8, min_samples=4, min_dwell_s=0.0,
        max_tier=BrownoutTier.COALESCE,
    )
    controller, _ = ladder(config)
    assert controller.set_tier(0.0, BrownoutTier.FORCE_CPU) == (
        BrownoutTier.NORMAL, BrownoutTier.COALESCE,
    )
    assert controller.set_tier(1.0, BrownoutTier.COALESCE) is None


def test_brownout_config_validation():
    with pytest.raises(ValueError):
        BrownoutConfig(window=0)
    with pytest.raises(ValueError):
        BrownoutConfig(window=4, min_samples=5)
    with pytest.raises(ValueError):
        BrownoutConfig(quantile=1.0)
    with pytest.raises(ValueError):
        BrownoutConfig(escalate_at=1.0, deescalate_at=1.0)
    with pytest.raises(ValueError):
        BrownoutConfig(update_period_s=0.0)
    with pytest.raises(ValueError):
        BrownoutController(0.0, LatencyTracker())
