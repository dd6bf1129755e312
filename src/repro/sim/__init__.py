"""Discrete-event simulation engine used by all timing models."""

from .engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    WaitTimeout,
)
from .resources import PriorityResource, Request, Resource, Server, Store
from .tracing import (
    FaultRecord,
    PhaseAccumulator,
    Trace,
    exact_percentile,
    geometric_mean,
    summarize_latencies,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "WaitTimeout",
    "FaultRecord",
    "PriorityResource",
    "Request",
    "Resource",
    "Server",
    "Store",
    "PhaseAccumulator",
    "Trace",
    "exact_percentile",
    "geometric_mean",
    "summarize_latencies",
]
