"""Discrete-event simulation engine used by all timing models."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "engine": (
        "AllOf", "AnyOf", "Event", "Interrupt", "Process", "SimulationError",
        "Simulator", "Timeout", "WaitTimeout",
    ),
    "resources": ("PriorityResource", "Request", "Resource", "Server", "Store"),
    "tracing": (
        "PhaseAccumulator", "exact_percentile", "geometric_mean",
        "summarize_latencies",
    ),
})
