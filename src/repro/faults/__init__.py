"""Fault injection & recovery for the DMX discrete-event model.

The paper's control-plane story assumes DMAs, DRX units, and
accelerators run autonomously while the CPU stays out of the data path —
which only holds in production if hangs, stragglers, and failed
transfers are recovered without the CPU babysitting every operation.
This package supplies that layer:

* :class:`FaultInjector` — seeded, per-site delay/hang/fail injection;
* :func:`with_timeout` / :func:`retry` — deadline races over ``AnyOf``
  with process interruption, and bounded exponential backoff;
* :class:`FaultPlan` — the system-level configuration
  :class:`~repro.core.system.DMXSystem` consumes;
* :class:`CrashPlan` — *permanent* failure domains (a card, an engine
  pool, a fabric link dies at a sim instant, optionally revived later),
  executed by :class:`repro.resilience.recovery.DomainManager`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "injector": ("FaultInjector", "FaultKind", "FaultPolicy", "InjectedFault"),
    "plan": ("FaultPlan",),
    "domains": ("CrashPlan", "DomainCrash", "DomainCrashed", "RescueAbandoned"),
    "recovery": ("RetryExhausted", "RetryPolicy", "retry", "with_timeout"),
})
