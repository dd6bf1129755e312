"""Online multi-tenant serving layer over the DMX system model.

Where :meth:`~repro.core.system.DMXSystem.run_latency` (closed-loop) and
:meth:`~repro.core.system.DMXSystem.run_throughput` (batch-issue) drive
fixed request counts, this package models *sustained online traffic*:

* :mod:`repro.serve.arrivals` — seeded Poisson / deterministic / MMPP
  arrival processes (one ``random.Random(seed)``, exact replay);
* :mod:`repro.serve.frontend` — per-tenant bounded admission queues,
  reject-vs-queue shedding, FCFS / weighted-round-robin dispatch into
  the shared system via :meth:`DMXSystem.submit_batch` (a lone request
  is a batch of one);
* :mod:`repro.serve.batching` — per-tenant batch formation (size-out +
  time-out window) feeding coalesced submissions via
  :meth:`DMXSystem.submit_batch` (one descriptor chain + doorbell +
  completion ISR per batch);
* :mod:`repro.serve.slo` — streaming p50/p95/p99 latency percentiles
  (P² + exact), per-tenant goodput, shed/violation counts, queue-depth
  timelines on the sim clock;
* :mod:`repro.serve.sweep` — latency-vs-offered-load knee curves per
  system :class:`~repro.core.placement.Mode`, optionally with a
  :class:`~repro.faults.FaultPlan` armed.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "arrivals": (
        "ARRIVAL_KINDS", "ArrivalProcess", "PoissonArrivals",
        "DeterministicArrivals", "MMPPArrivals", "RampArrivals",
        "make_arrivals", "arrival_times",
    ),
    "frontend": (
        "ShedPolicy", "Discipline", "TenantSpec", "FrontendConfig",
        "ServingFrontend",
    ),
    "batching": ("BatchingConfig", "BatchFormer", "FormingBatch"),
    "slo": (
        "DEFAULT_QUANTILES", "P2Quantile", "LatencyTracker", "TenantStats",
        "QueueSample", "ServeResult",
    ),
    "sweep": (
        "SweepConfig", "SweepPoint", "SweepResult", "run_sweep",
        "run_sweep_point", "calibrate_peak_rps", "unloaded_latency",
    ),
})
