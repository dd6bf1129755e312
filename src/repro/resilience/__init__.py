"""The resilience control plane: from telemetry signals to decisions.

Where :mod:`repro.faults` recovers *per request* (watchdogs, retries,
deadline fallback), this package closes the loop at the *system* level:

* :mod:`repro.resilience.health` — windowed health scores per DRX unit,
  published into the shared metrics registry;
* :mod:`repro.resilience.breaker` — closed/open/half-open circuit
  breakers with seeded deterministic probes and anti-flap hysteresis;
* :mod:`repro.resilience.control` — the :class:`ControlPlane` facade
  :class:`~repro.core.system.DMXSystem` embeds (pass a
  :class:`ResilienceConfig`) to proactively route motion stages around
  sick units — to an alternate placement or to CPU restructuring —
  before any deadline budget is burned;
* :mod:`repro.resilience.admission` — per-tenant token buckets for the
  serving frontend's admission policer;
* :mod:`repro.resilience.brownout` — the graceful-degradation ladder
  (shed low priority → coalesce dispatch → force CPU) driven by
  p99-vs-SLO headroom;
* :mod:`repro.resilience.chaos` — :func:`run_chaos_sweep`, crossing
  FaultPlan intensity × offered load to chart the goodput cliff with
  and without the control plane;
* :mod:`repro.resilience.recovery` — permanent-failure domains: the
  :class:`DomainManager` executes a seeded
  :class:`~repro.faults.CrashPlan` (crash → detect → decommission →
  drain → rescue → revive → re-admit) against a live
  :class:`~repro.core.system.DMXSystem`;
* :mod:`repro.resilience.invariants` — the post-hoc conservation
  checker proving every chaos/recovery artifact balances its books
  (``python -m repro.telemetry verify``).

Everything is deterministic given a seed, like the rest of the repo.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "health": ("HealthConfig", "HealthMonitor"),
    "breaker": (
        "BreakerState", "BreakerConfig", "BreakerDecision", "CircuitBreaker",
    ),
    "admission": ("TokenBucketConfig", "TokenBucket"),
    "brownout": ("BrownoutTier", "BrownoutConfig", "BrownoutController"),
    "control": ("ResilienceConfig", "ControlPlane"),
    "chaos": (
        "ChaosSweepConfig", "ChaosPoint", "ChaosSweepResult",
        "run_chaos_sweep", "run_chaos_cell", "scale_plan",
        "DEFAULT_CHAOS_PLAN",
    ),
    "recovery": (
        "DomainManager", "RecoveryScenarioConfig", "RecoveryScenarioResult",
        "run_recovery_scenario",
    ),
    "invariants": (
        "InvariantReport", "InvariantViolation", "verify_artifact",
        "verify_artifact_path",
    ),
})
