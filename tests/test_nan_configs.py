"""NaN is rejected by every serve, control, planner, resilience and
fault config check.

A check written as ``x <= 0`` or ``x < 0`` lets NaN through, because
every comparison with NaN is false. The configs below once accepted
NaN and silently corrupted results: ``FrontendConfig(slo_s=nan)``
counted no SLO violations and kept the brownout ladder at NORMAL,
``BrownoutConfig(min_dwell_s=nan)`` froze the ladder after its first
step, ``PlannerConfig(queue_weight=nan)`` priced every bid at NaN (so
the ranking fell back to declaration order), and
``TenantSpec(deadline_s=nan)`` broke EDF ordering.

The observation plane and the serving summary had the same hole:
``AlertConfig(fast_burn=nan)`` or ``slow_burn=nan`` never fired an
alert, ``RollupConfig(window_s=nan)`` let a whole run finish and then
crashed the rollup pass, ``ServeResult.per_tenant_slo_violations(nan)``
counted no violation, and ``LatencyTracker.add(nan)`` turned the mean
and every percentile into NaN.

So did the resilience and fault planes: ``TokenBucketConfig(rate_per_s=
nan)`` admitted every arrival and ``burst=nan`` none, a NaN breaker
cooldown let a tripped breaker probe at once (a NaN cap was ignored),
and a NaN ``FaultPlan`` deadline, retry backoff or fault delay killed
the run at its first use with a NaN timeout delay.

The crash plane too: ``CrashPlan(rescue_deadline_s=nan)`` rescued every
drained leg, as if no deadline were set, and a NaN ``DomainCrash``
instant (``at_s`` or ``revive_at_s``) killed the run while the system
was built, with an engine error that named no field.

And the experiment configs: a NaN offered load in ``SweepConfig``,
``ChaosSweepConfig`` or ``RecoveryScenarioConfig`` killed the run at its
first arrival with an engine error that named no field, a NaN chaos
fault intensity died in ``scale_plan`` naming ``fail_p``, and a NaN
``slo_s`` got as far as the first point's frontend.

The metric instruments, too: ``Counter.inc(nan)`` made the total NaN,
``Histogram.observe(nan)`` landed in the overflow bucket and made the
sum NaN, and a NaN ``Gauge.sample`` time landed and then let a sample
that moved backwards pass the monotonic check. Each value reached the
run artifact as a non-standard ``NaN`` token.
"""

import math

import pytest

from repro.backends import PlannerConfig
from repro.control import ControllerConfig
from repro.faults import (
    CrashPlan,
    DomainCrash,
    FaultPlan,
    FaultPolicy,
    RetryPolicy,
)
from repro.resilience import (
    BreakerConfig,
    ChaosSweepConfig,
    RecoveryScenarioConfig,
    TokenBucketConfig,
)
from repro.resilience.brownout import BrownoutConfig, BrownoutController
from repro.serve import (
    BatchingConfig,
    FrontendConfig,
    LatencyTracker,
    PoissonArrivals,
    SweepConfig,
    TenantSpec,
)
from repro.serve.slo import ServeResult, TenantStats
from repro.telemetry import AlertConfig, MetricsRegistry, RollupConfig

NAN = math.nan


def _tenant(**kw):
    return TenantSpec(
        name="t", arrivals=PoissonArrivals(100.0), n_requests=1, **kw
    )


def _token_bucket(**kw):
    return TokenBucketConfig(**{"rate_per_s": 10.0, **kw})


def _crash(**kw):
    return DomainCrash(**{"target": "drx.s0", "at_s": 0.0, **kw})


def _tuples(kw, *names):
    """Wrap the scalar given for each tuple field into a one-item tuple."""
    return {key: (v,) if key in names else v for key, v in kw.items()}


def _sweep(**kw):
    return SweepConfig(**{
        "offered_loads_rps": (1.0,), **_tuples(kw, "offered_loads_rps"),
    })


def _chaos(**kw):
    return ChaosSweepConfig(**{
        "offered_loads_rps": (1.0,),
        **_tuples(kw, "offered_loads_rps", "fault_intensities"),
    })


def _recovery(**kw):
    return RecoveryScenarioConfig(**{"offered_rps": 1.0, "crashes": (), **kw})


#: (constructor, field): each call must reject ``field=value``.
CHECKS = [
    (FrontendConfig, "slo_s"),
    (FrontendConfig, "sample_period_s"),
    (_tenant, "deadline_s"),
    (BatchingConfig, "window_s"),
    (BatchingConfig, "coalesce_window_factor"),
    (BrownoutConfig, "min_dwell_s"),
    (BrownoutConfig, "update_period_s"),
    (ControllerConfig, "deescalate_fraction"),
    (PlannerConfig, "queue_weight"),
    (AlertConfig, "fast_burn"),
    (AlertConfig, "slow_burn"),
    (RollupConfig, "window_s"),
    (_token_bucket, "rate_per_s"),
    (_token_bucket, "burst"),
    (BreakerConfig, "cooldown_s"),
    (BreakerConfig, "cooldown_multiplier"),
    (BreakerConfig, "cooldown_cap_s"),
    (RetryPolicy, "backoff_base_s"),
    (RetryPolicy, "backoff_multiplier"),
    (RetryPolicy, "backoff_cap_s"),
    (FaultPolicy, "delay_s"),
    (FaultPolicy, "fail_latency_s"),
    (FaultPlan, "dma_timeout_s"),
    (FaultPlan, "drx_deadline_s"),
    (CrashPlan, "rescue_deadline_s"),
    (_crash, "at_s"),
    (_crash, "revive_at_s"),
    (_sweep, "offered_loads_rps"),
    (_sweep, "slo_s"),
    (_chaos, "offered_loads_rps"),
    (_chaos, "fault_intensities"),
    (_chaos, "slo_s"),
    (_recovery, "offered_rps"),
    (_recovery, "slo_s"),
]


def _id(check):
    make, name = check
    return f"{getattr(make, '__name__', 'make').lstrip('_')}.{name}"


@pytest.mark.parametrize("check", CHECKS, ids=[_id(c) for c in CHECKS])
def test_nan_is_rejected(check):
    make, name = check
    with pytest.raises(ValueError, match=rf"{name}.*NaN"):
        make(**{name: NAN})


def test_brownout_controller_rejects_nan_slo():
    with pytest.raises(ValueError, match="slo_s.*NaN"):
        BrownoutController(NAN, LatencyTracker())


@pytest.mark.parametrize("check", CHECKS, ids=[_id(c) for c in CHECKS])
def test_finite_defaults_still_accepted(check):
    make, name = check
    value = {"slo_s": 1e-3, "deadline_s": 1e-3}.get(name)
    make(**({name: value} if value is not None else {}))


def test_latency_tracker_rejects_a_nan_sample():
    tracker = LatencyTracker()
    with pytest.raises(ValueError, match="NaN"):
        tracker.add(NAN)
    assert tracker.count == 0


def test_what_if_slo_rejects_nan():
    stats = TenantStats(name="t")
    stats.latency.add(1e-3)
    result = ServeResult(
        tenants={"t": stats}, latency=stats.latency, timeline=[],
        elapsed=1.0,
    )
    assert result.per_tenant_slo_violations(1e-6) == {"t": 1}
    with pytest.raises(ValueError, match="slo_s.*NaN"):
        result.per_tenant_slo_violations(NAN)


def _counter():
    return MetricsRegistry().counter("retries")


def _gauge():
    return MetricsRegistry().gauge("depth")


def _sampled_gauge():
    """A gauge that already holds one sample, at t=1."""
    gauge = _gauge()
    gauge.sample(1.0, 1)
    return gauge


def _histogram():
    return MetricsRegistry().histogram("latency")


def _state(instrument):
    """Everything an instrument has recorded, as a comparable tuple."""
    return tuple(
        repr(getattr(instrument, slot))
        for slot in ("value", "samples", "counts", "sum", "count")
        if hasattr(instrument, slot)
    )


#: (instrument, method, args): each call hands the instrument a NaN,
#: which it must refuse, by name, without recording anything.
INSTRUMENT_CHECKS = [
    (_counter, "inc", (NAN,)),
    (_gauge, "sample", (NAN, 1)),
    (_sampled_gauge, "sample", (NAN, 2)),
    (_sampled_gauge, "sample", (2.0, NAN)),
    (_histogram, "observe", (NAN,)),
]


def _instrument_id(check):
    make, method, args = check
    return f"{make.__name__.lstrip('_')}.{method}{args}"


@pytest.mark.parametrize(
    "check", INSTRUMENT_CHECKS,
    ids=[_instrument_id(c) for c in INSTRUMENT_CHECKS],
)
def test_metric_instrument_rejects_nan(check):
    make, method, args = check
    instrument = make()
    kind = type(instrument).__name__.lower()
    before = _state(instrument)
    with pytest.raises(ValueError, match=rf"{kind} {instrument.name}: .*NaN"):
        getattr(instrument, method)(*args)
    assert _state(instrument) == before


def test_gauge_stays_monotonic_past_a_nan_time():
    gauge = _sampled_gauge()
    with pytest.raises(ValueError, match="NaN"):
        gauge.sample(NAN, 2)
    with pytest.raises(ValueError, match="gauge depth: .*backwards"):
        gauge.sample(0.5, 3)
    assert gauge.samples == [(1.0, 1.0)]
