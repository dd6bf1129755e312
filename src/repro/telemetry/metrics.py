"""Metrics registry: counters, gauges, and histograms on simulated time.

The registry replaces ad-hoc per-run timeline lists with named,
labelled instruments:

* :class:`Counter` — monotonically increasing totals (requests admitted,
  retries, bytes moved);
* :class:`Gauge` — sampled time series on the sim clock (queue depths,
  in-flight window, utilizations), with time-weighted aggregation so
  bursty sampling periods don't bias means;
* :class:`Histogram` — fixed-bound bucket counts plus sum/count
  (client-observed latency distributions).

Instruments are keyed by ``(name, sorted labels)`` and kept in
insertion order; because the DES is deterministic, two equal-seed runs
produce byte-identical metric dumps.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "time_weighted_mean",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Geometric latency buckets, 10 us .. 3 s (upper bounds, seconds).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0,
)


def time_weighted_mean(
    points: Sequence[Tuple[float, float]],
    end: Optional[float] = None,
) -> float:
    """Mean of a last-value-carried-forward time series.

    Each sample ``(t_i, v_i)`` holds until the next sample; the final
    sample extends to ``end`` (defaulting to the last sample time, where
    it then carries zero weight). Returns the plain average when the
    series spans zero time (e.g. a single sample).
    """
    if not points:
        return 0.0
    last_t = points[-1][0]
    horizon = last_t if end is None else max(end, last_t)
    span = horizon - points[0][0]
    if span <= 0:
        return sum(v for _, v in points) / len(points)
    total = 0.0
    for (t, v), (t_next, _) in zip(points, points[1:]):
        total += v * (t_next - t)
    total += points[-1][1] * (horizon - last_t)
    return total / span


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not amount >= 0:
            raise ValueError(
                f"counter {self.name}: increment must be >= 0 (not NaN), "
                f"got {amount}"
            )
        self.value += amount


class Gauge:
    """A sampled time series on the simulation clock."""

    __slots__ = ("name", "labels", "samples")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.samples: List[Tuple[float, float]] = []

    def sample(self, time: float, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError(f"gauge {self.name}: sample value is NaN")
        if not time >= (self.samples[-1][0] if self.samples else -math.inf):
            raise ValueError(
                f"gauge {self.name}: sample time moved backwards or is NaN"
            )
        self.samples.append((time, value))

    def last(self) -> float:
        if not self.samples:
            raise ValueError(f"gauge {self.name}: no samples")
        return self.samples[-1][1]

    def max(self) -> float:
        if not self.samples:
            raise ValueError(f"gauge {self.name}: no samples")
        return max(v for _, v in self.samples)

    def time_weighted_mean(self, end: Optional[float] = None) -> float:
        return time_weighted_mean(self.samples, end=end)


class Histogram:
    """Fixed-bound bucket counts plus sum/count.

    ``bounds`` are inclusive upper bucket edges; observations above the
    last bound land in the overflow bucket (``counts[-1]``).
    """

    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...],
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name}: bounds must be ascending")
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, x: float) -> None:
        if math.isnan(x):
            raise ValueError(f"histogram {self.name}: observation is NaN")
        self.sum += x
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if x <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def mean(self) -> float:
        if self.count == 0:
            raise ValueError(f"histogram {self.name}: empty")
        return self.sum / self.count


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create registry of labelled instruments."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple, Counter] = {}
        self._gauges: Dict[Tuple, Gauge] = {}
        self._histograms: Dict[Tuple, Histogram] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        found = self._counters.get(key)
        if found is None:
            found = self._counters[key] = Counter(name, key[1])
        return found

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        found = self._gauges.get(key)
        if found is None:
            found = self._gauges[key] = Gauge(name, key[1])
        return found

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        key = (name, _label_key(labels))
        found = self._histograms.get(key)
        if found is None:
            found = self._histograms[key] = Histogram(name, key[1], bounds)
        return found

    # -- iteration (insertion order; deterministic under the DES) ------------

    def counters(self) -> Iterable[Counter]:
        return self._counters.values()

    def gauges(self) -> Iterable[Gauge]:
        return self._gauges.values()

    def histograms(self) -> Iterable[Histogram]:
        return self._histograms.values()
