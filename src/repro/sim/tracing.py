"""Lightweight tracing/metrics for simulation runs.

The DMX experiments need three aggregates per run: per-request latency
broken into phases (kernel / restructuring / movement), per-resource busy
time, and per-device energy integrals. Timing and the fault plane's
point events live in the telemetry layer (:mod:`repro.telemetry`);
:class:`PhaseAccumulator` sums phase durations.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List

__all__ = ["PhaseAccumulator", "exact_percentile", "geometric_mean"]


class PhaseAccumulator:
    """Sums time per phase; the unit the breakdown figures are built from."""

    def __init__(self, phases: Iterable[str] = ()) -> None:
        self.totals: Dict[str, float] = {p: 0.0 for p in phases}

    def add(self, phase: str, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative phase duration: {duration}")
        self.totals[phase] = self.totals.get(phase, 0.0) + duration

    def merge(self, other: "PhaseAccumulator") -> "PhaseAccumulator":
        merged = PhaseAccumulator(self.totals)
        for phase, duration in self.totals.items():
            merged.totals[phase] = duration
        for phase, duration in other.totals.items():
            merged.totals[phase] = merged.totals.get(phase, 0.0) + duration
        return merged

    @property
    def total(self) -> float:
        return sum(self.totals.values())

    def fractions(self) -> Dict[str, float]:
        """Phase shares of the total (empty dict when total is zero)."""
        total = self.total
        if total <= 0:
            return {}
        return {phase: duration / total for phase, duration in self.totals.items()}


def exact_percentile(ordered: List[float], q: float) -> float:
    """Linear-interpolated percentile of a pre-sorted sample.

    The single quantile implementation shared by the telemetry rollups
    and diffs and the serving-side
    :class:`~repro.serve.slo.LatencyTracker`, so all report identical
    values for identical samples.
    """
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    if n == 1:
        return ordered[0]
    rank = q * (n - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; the paper reports geomeans across benchmarks."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))

