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

So did the arrival processes and the device cost models:
``PoissonArrivals(nan)`` was built and then killed the run at its first
arrival with an engine error that named no field, and the deterministic,
MMPP and ramp processes, ``DMACosts``, ``NotificationCosts``,
``DSAConfig`` and ``XDMAConfig`` took NaN the same way.

The count checks were spelled ``x < 1`` or ``x <= 0`` as well.
``FrontendConfig(max_inflight=nan)`` let ``run()`` spin forever under
the default sampler (with it off, no admitted request completed),
``TenantSpec(weight=nan)`` starved WRR dispatch,
``TenantSpec(queue_capacity=nan)`` admitted every arrival under
REJECT, ``CrashPlan(detect_after_failures=nan)`` never decommissioned
a crashed card, and ``RetryPolicy(max_attempts=nan)`` died with a
``TypeError`` from ``range``. The other count fields below (batch
sizes, windows, breaker thresholds, standby cards, tenant priority)
took NaN the same way, except ``BrownoutConfig``'s ``window`` and
``escalate_at``, which a later check rejected under another field's
name. (A NaN ``ServingFrontend.set_weight`` is checked with the other
live-weight cases in ``tests/serve/test_dispatch_fairness.py``.)

Last, the core model every chain and system is built from.
``SystemConfig(mode=PCIE_INTEGRATED, accelerators_per_switch=nan)``
built one switch for any number of apps (its ``slots_left == 0`` never
held), and NaN stage times, byte counts, thread counts, work-profile
volumes, accelerator speedups, resource capacities, service times and
CPU and DRX spec fields were all accepted; a NaN scale factor for a
profile or a chain died converting NaN to an integer, naming no field.
``CollectiveSystem(nan, ...)`` passed its ``< 2`` check and then died
with a ``TypeError`` from ``range``.
Every chain the calibrated table holds goes through these constructors.

So do the system's own parts. ``EnergyParams`` took NaN in all eight
fields (``drx_static_w=nan`` made the DRX energy NaN) and never
checked ``accelerator_idle_w`` or ``drx_static_w`` at all, so idle
accelerators could cost negative joules. A NaN ``AlertConfig.min_count``
never fired and a NaN ``clear_after`` never cleared, like a NaN alert
window. ``LinkConfig(propagation_latency_s=nan)`` priced every bid
over the link at NaN and then killed the first transfer with an engine
error that named no field; ``Fabric`` did not check
``switch_latency_s``; and ``HostCPU(parallel_overhead=nan)`` or
``spawn_overhead_s=nan`` made every parallel restructuring time NaN.
"""

import dataclasses
import math

import pytest

from repro.accelerators.base import AcceleratorDevice, AcceleratorSpec
from repro.backends import PlannerConfig
from repro.backends.dsa import DSAConfig
from repro.backends.xdma import XDMAConfig
from repro.control import ControllerConfig
from repro.core import (
    AppChain,
    CollectiveSystem,
    KernelStage,
    Mode,
    MotionStage,
    SystemConfig,
)
from repro.cpu import XEON_8260L, HostCPU
from repro.drx.microarch import DRXConfig
from repro.energy import EnergyParams
from repro.faults import (
    CrashPlan,
    DomainCrash,
    FaultPlan,
    FaultPolicy,
    RetryPolicy,
)
from repro.profiles import WorkProfile, scale_profile
from repro.resilience import (
    BreakerConfig,
    ChaosSweepConfig,
    HealthConfig,
    RecoveryScenarioConfig,
    TokenBucketConfig,
)
from repro.resilience.brownout import BrownoutConfig, BrownoutController
from repro.interconnect import DMACosts, Fabric, LinkConfig
from repro.runtime.driver import NotificationCosts
from repro.serve import (
    BatchingConfig,
    DeterministicArrivals,
    FrontendConfig,
    LatencyTracker,
    MMPPArrivals,
    PoissonArrivals,
    RampArrivals,
    SweepConfig,
    TenantSpec,
)
from repro.serve.slo import QueueTimeline, ServeResult, TenantStats
from repro.sim import Resource, Server, Simulator
from repro.telemetry import AlertConfig, MetricsRegistry, RollupConfig

NAN = math.nan


def _tenant(**kw):
    return TenantSpec(**{
        "name": "t", "arrivals": PoissonArrivals(100.0), "n_requests": 1,
        **kw,
    })


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


def _poisson(**kw):
    return PoissonArrivals(**{"rate_rps": 1.0, **kw})


def _deterministic(**kw):
    return DeterministicArrivals(**{"rate_rps": 1.0, **kw})


def _mmpp(**kw):
    return MMPPArrivals(**{"base_rate_rps": 1.0, **kw})


def _ramp(duration_s=1.0, rate_rps=1.0):
    """A one-leg ramp."""
    return RampArrivals(segments=((duration_s, rate_rps),))


def _system(**kw):
    return SystemConfig(**{"mode": Mode.PCIE_INTEGRATED, **kw})


def _spec(**kw):
    return AcceleratorSpec(**{"name": "a", "domain": "d",
                              "speedup_vs_cpu": 5.0, **kw})


def _kernel(**kw):
    return KernelStage(**{
        "name": "k", "spec": _spec(), "cpu_time_s": 1e-3,
        "accel_time_s": 2e-4, "output_bytes": 1, **kw,
    })


def _profile(**kw):
    return WorkProfile(**{
        "name": "p", "bytes_in": 1, "bytes_out": 1, "elements": 1,
        "ops_per_element": 1.0, **kw,
    })


def _motion(**kw):
    return MotionStage(**{
        "name": "m", "profile": _profile(), "input_bytes": 1,
        "output_bytes": 1, **kw,
    })


def _device(kernel_time_s=1e-3):
    return AcceleratorDevice(Simulator(), _spec(), kernel_time_s)


def _resource(capacity=1):
    return Resource(Simulator(), capacity=capacity)


def _transfer(duration=1.0):
    """The first step of one ``Server.transfer``."""
    job = Server(Simulator()).transfer(duration)
    try:
        next(job)
    finally:
        job.close()


def _collectives(n_accelerators=4):
    return CollectiveSystem(n_accelerators, SystemConfig(mode=Mode.MULTI_AXL))


def _fabric(**kw):
    return Fabric(Simulator(), **kw)


def _host_cpu(**kw):
    return HostCPU(Simulator(), **kw)


def _cache(**kw):
    return dataclasses.replace(XEON_8260L.l1d, **kw)


def _cpu(**kw):
    return dataclasses.replace(XEON_8260L, **kw)


def _vector_lanes(element_size=4):
    return XEON_8260L.vector_lanes(element_size)


def _scale_profile(factor=2.0):
    return scale_profile(_profile(), factor)


def _scale_batches(factor=2.0):
    chain = AppChain("app", [_kernel(name="k1"), _motion(),
                             _kernel(name="k2")])
    return chain.scale_batches(factor)


#: (constructor, field): each call must reject ``field=value``.
CHECKS = [
    (FrontendConfig, "slo_s"),
    (FrontendConfig, "sample_period_s"),
    (FrontendConfig, "max_inflight"),
    (FrontendConfig, "max_affinity_run"),
    (_tenant, "deadline_s"),
    (_tenant, "n_requests"),
    (_tenant, "weight"),
    (_tenant, "queue_capacity"),
    (_tenant, "priority"),
    (BatchingConfig, "window_s"),
    (BatchingConfig, "coalesce_window_factor"),
    (BatchingConfig, "max_batch"),
    (BatchingConfig, "rate_window"),
    (BrownoutConfig, "min_dwell_s"),
    (BrownoutConfig, "update_period_s"),
    (BrownoutConfig, "window"),
    (BrownoutConfig, "escalate_at"),
    (HealthConfig, "window"),
    (ControllerConfig, "deescalate_fraction"),
    (ControllerConfig, "standby_cards"),
    (PlannerConfig, "queue_weight"),
    (AlertConfig, "fast_burn"),
    (AlertConfig, "slow_burn"),
    (AlertConfig, "fast_windows"),
    (AlertConfig, "slow_windows"),
    (AlertConfig, "min_count"),
    (AlertConfig, "clear_after"),
    (RollupConfig, "window_s"),
    (_token_bucket, "rate_per_s"),
    (_token_bucket, "burst"),
    (BreakerConfig, "cooldown_s"),
    (BreakerConfig, "cooldown_multiplier"),
    (BreakerConfig, "cooldown_cap_s"),
    (BreakerConfig, "min_observations"),
    (BreakerConfig, "probe_successes"),
    (RetryPolicy, "max_attempts"),
    (RetryPolicy, "backoff_base_s"),
    (RetryPolicy, "backoff_multiplier"),
    (RetryPolicy, "backoff_cap_s"),
    (FaultPolicy, "delay_s"),
    (FaultPolicy, "fail_latency_s"),
    (FaultPlan, "dma_timeout_s"),
    (FaultPlan, "drx_deadline_s"),
    (CrashPlan, "rescue_deadline_s"),
    (CrashPlan, "detect_after_failures"),
    (_crash, "at_s"),
    (_crash, "revive_at_s"),
    (_sweep, "offered_loads_rps"),
    (_sweep, "slo_s"),
    (_chaos, "offered_loads_rps"),
    (_chaos, "fault_intensities"),
    (_chaos, "slo_s"),
    (_recovery, "offered_rps"),
    (_recovery, "slo_s"),
    (_poisson, "rate_rps"),
    (_deterministic, "rate_rps"),
    (_mmpp, "base_rate_rps"),
    (_mmpp, "burst_factor"),
    (_mmpp, "mean_dwell_quiet_s"),
    (_mmpp, "mean_dwell_burst_s"),
    (_ramp, "duration_s"),
    (_ramp, "rate_rps"),
    (DMACosts, "setup_s"),
    (DMACosts, "completion_interrupt_s"),
    (DMACosts, "chained_descriptor_s"),
    (NotificationCosts, "interrupt_s"),
    (NotificationCosts, "coalesced_s"),
    (NotificationCosts, "poll_s"),
    (NotificationCosts, "coalesce_window_s"),
    (NotificationCosts, "polling_threshold_hz"),
    (DSAConfig, "engines"),
    (DSAConfig, "move_bandwidth"),
    (DSAConfig, "transform_ops_per_s"),
    (DSAConfig, "portal_submit_s"),
    (DSAConfig, "descriptor_s"),
    (DSAConfig, "batch_descriptor_s"),
    (DSAConfig, "completion_poll_s"),
    (DSAConfig, "poll_reap_s"),
    (XDMAConfig, "channels"),
    (XDMAConfig, "transform_bandwidth"),
    (XDMAConfig, "max_payload_bytes"),
    (XDMAConfig, "program_s"),
    (XDMAConfig, "member_program_s"),
    (_system, "accelerators_per_switch"),
    (_kernel, "cpu_time_s"),
    (_kernel, "accel_time_s"),
    (_kernel, "output_bytes"),
    (_kernel, "cpu_serial_time_s"),
    (_motion, "input_bytes"),
    (_motion, "output_bytes"),
    (_motion, "cpu_threads"),
    (_profile, "bytes_in"),
    (_profile, "bytes_out"),
    (_profile, "elements"),
    (_profile, "ops_per_element"),
    (_profile, "element_size"),
    (_spec, "speedup_vs_cpu"),
    (_spec, "fpga_clock_hz"),
    (_spec, "asic_clock_hz"),
    (_spec, "power_w"),
    (_device, "kernel_time_s"),
    (_resource, "capacity"),
    (_transfer, "duration"),
    (_collectives, "n_accelerators"),
    (_cache, "size_bytes"),
    (_cache, "line_bytes"),
    (_cache, "latency_cycles"),
    (_cpu, "cores"),
    (_cpu, "frequency_hz"),
    (_cpu, "core_stream_bandwidth"),
    (_cpu, "socket_stream_bandwidth"),
    (_vector_lanes, "element_size"),
    (_scale_profile, "factor"),
    (_scale_batches, "factor"),
    (DRXConfig, "lanes"),
    (DRXConfig, "frequency_hz"),
    (DRXConfig, "dram_bandwidth"),
    (DRXConfig, "power_w"),
    (EnergyParams, "cpu_idle_w"),
    (EnergyParams, "cpu_core_active_w"),
    (EnergyParams, "accelerator_active_w"),
    (EnergyParams, "accelerator_idle_w"),
    (EnergyParams, "drx_active_w"),
    (EnergyParams, "drx_static_w"),
    (EnergyParams, "pcie_pj_per_byte"),
    (EnergyParams, "switch_static_w"),
    (LinkConfig, "propagation_latency_s"),
    (_fabric, "switch_latency_s"),
    (_host_cpu, "parallel_overhead"),
    (_host_cpu, "spawn_overhead_s"),
]


def _id(check):
    make, name = check
    return f"{getattr(make, '__name__', 'make').lstrip('_')}.{name}"


@pytest.mark.parametrize("check", CHECKS, ids=[_id(c) for c in CHECKS])
def test_nan_is_rejected(check):
    make, name = check
    with pytest.raises(ValueError, match=rf"{name}.*NaN"):
        make(**{name: NAN})


@pytest.mark.parametrize("process", [
    MMPPArrivals(base_rate_rps=1.0), RampArrivals(segments=((1.0, 1.0),)),
], ids=["mmpp", "ramp"])
def test_rescaling_to_a_nan_rate_is_rejected(process):
    with pytest.raises(ValueError, match="mean_rate_rps.*NaN"):
        process.scaled(NAN)


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
        tenants={"t": stats}, latency=stats.latency,
        timeline=QueueTimeline((), (), {}), elapsed=1.0,
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
