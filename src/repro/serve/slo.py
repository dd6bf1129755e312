"""SLO accounting for the serving layer.

Latency here is *client-observed* latency: arrival → completion,
including admission-queue wait — the quantity SLOs are written against,
as opposed to the service-only latency in
:class:`~repro.core.system.RequestRecord`.

:class:`LatencyTracker` keeps every sample, so its percentiles are
exact at simulation scale: sweep results are reproducible to the byte
and assertions about knee curves don't ride on estimator error. It is
also the one in-run record of client latency: the brownout ladder and
the closed-loop controller read their sliding-window tails from the
serving frontend's trackers (:meth:`LatencyTracker.tail`) instead of
keeping copies of the stream.

:class:`P2Quantile` is a bounded-memory streaming estimate of one
quantile via the P² algorithm (Jain & Chlamtác, CACM 1985) — O(1)
state, what a production frontend would run. No tracker feeds it; it
stays as a standalone estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..sim.tracing import exact_percentile as _exact_percentile
from ..telemetry.metrics import time_weighted_mean

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.system import RequestRecord
    from ..telemetry import AlertEvent, RunRollups, Telemetry

__all__ = [
    "P2Quantile",
    "LatencyTracker",
    "TenantStats",
    "QueueSample",
    "QueueTimeline",
    "ServeResult",
    "DEFAULT_QUANTILES",
]

DEFAULT_QUANTILES = (0.50, 0.95, 0.99)


class P2Quantile:
    """Streaming quantile estimate via the P² algorithm.

    Maintains five markers (min, three interior, max) whose heights are
    nudged toward the ideal quantile positions with parabolic
    interpolation; memory and per-observation cost are O(1). Exact for
    the first five observations.
    """

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self.count = 0
        self._initial: List[float] = []
        self._heights: Optional[List[float]] = None
        self._positions: List[float] = []
        self._desired: List[float] = []

    def add(self, x: float) -> None:
        self.count += 1
        if self._heights is None:
            self._initial.append(x)
            if len(self._initial) == 5:
                self._initial.sort()
                self._heights = list(self._initial)
                self._positions = [0.0, 1.0, 2.0, 3.0, 4.0]
                q = self.q
                self._desired = [0.0, 2 * q, 4 * q, 2 + 2 * q, 4.0]
            return
        h, n = self._heights, self._positions
        if x < h[0]:
            h[0] = x
            cell = 0
        elif x >= h[4]:
            h[4] = x
            cell = 3
        else:
            cell = max(i for i in range(4) if h[i] <= x)
        for i in range(cell + 1, 5):
            n[i] += 1
        q = self.q
        for i, dn in enumerate((0.0, q / 2, q, (1 + q) / 2, 1.0)):
            self._desired[i] += dn
        for i in (1, 2, 3):
            drift = self._desired[i] - n[i]
            if (drift >= 1 and n[i + 1] - n[i] > 1) or (
                drift <= -1 and n[i - 1] - n[i] < -1
            ):
                step = 1 if drift >= 0 else -1
                candidate = self._parabolic(i, step)
                if not h[i - 1] < candidate < h[i + 1]:
                    candidate = self._linear(i, step)
                h[i] = candidate
                n[i] += step

    def _parabolic(self, i: int, step: int) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step)
            * (h[i + 1] - h[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step)
            * (h[i] - h[i - 1])
            / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: int) -> float:
        h, n = self._heights, self._positions
        return h[i] + step * (h[i + step] - h[i]) / (n[i + step] - n[i])

    @property
    def value(self) -> float:
        """Current quantile estimate (exact below five observations)."""
        if self.count == 0:
            raise ValueError("quantile of an empty stream")
        if self._heights is None:
            return _exact_percentile(sorted(self._initial), self.q)
        return self._heights[2]


class LatencyTracker:
    """Latency stream with exact percentiles over retained samples.

    Samples are kept in arrival order: :meth:`percentile` is exact over
    the whole stream and :meth:`tail` over its most recent window.
    """

    def __init__(self, quantiles: Tuple[float, ...] = DEFAULT_QUANTILES):
        for q in quantiles:
            if not 0.0 < q < 1.0:
                raise ValueError(f"quantile must be in (0, 1), got {q}")
        self._quantiles: Tuple[float, ...] = tuple(dict.fromkeys(quantiles))
        self._samples: List[float] = []
        # Sorted view of ``_samples``, invalidated on add: ``summary()``
        # asks for one percentile per tracked quantile, and re-sorting
        # the full sample list per quantile dominated large sweeps.
        self._sorted: Optional[List[float]] = None
        # The last ``tail`` answer and its ``(count, q, window)``: the
        # controller reads every tracker each tick, and most ticks see
        # no new sample. Samples are only appended, so ``count`` names
        # the window.
        self._tail_key: Optional[Tuple[int, float, int]] = None
        self._tail_value = 0.0
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    @property
    def quantiles(self) -> Tuple[float, ...]:
        return self._quantiles

    def add(self, x: float) -> None:
        if not x >= 0:
            raise ValueError(f"latency sample must be >= 0 (not NaN): {x}")
        self.count += 1
        self.total += x
        if x > self.max:
            self.max = x
        self._samples.append(x)
        self._sorted = None

    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("mean of an empty tracker")
        return self.total / self.count

    def percentile(self, q: float) -> float:
        """Exact ``q`` quantile of every sample.

        Answers come from a cached sorted view built on the first
        percentile query after an :meth:`add` — one sort amortized over
        every quantile a summary asks for.
        """
        if self.count == 0:
            raise ValueError("percentile of an empty tracker")
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = sorted(self._samples)
        return _exact_percentile(ordered, q)

    def tail(self, q: float, window: int, min_samples: int) -> Optional[float]:
        """Exact ``q`` quantile of the last ``window`` samples, or None
        while fewer than ``min_samples`` have arrived (callers keep
        ``min_samples <= window``). Repeating the last question before a
        new sample arrives returns the last answer without a re-sort."""
        if self.count < min_samples:
            return None
        key = (self.count, q, window)
        if key != self._tail_key:
            self._tail_key = key
            self._tail_value = _exact_percentile(
                sorted(self._samples[-window:]), q
            )
        return self._tail_value

    def count_over(self, threshold: float) -> int:
        """How many samples exceed ``threshold``."""
        return sum(1 for x in self._samples if x > threshold)

    def summary(self) -> Dict[str, float]:
        """Mean + tracked percentiles, for reports."""
        out = {"count": float(self.count), "mean": self.mean(),
               "max": self.max}
        for q in self.quantiles:
            out[f"p{round(q * 100)}"] = self.percentile(q)
        return out


@dataclass
class TenantStats:
    """Per-tenant serving counters and latency streams.

    ``violations`` counts completed, non-failed requests whose
    client-observed latency exceeded the frontend's SLO; ``failed``
    counts requests whose recovery plane gave up (they completed with an
    error and are excluded from goodput). ``rate_limited`` and
    ``brownout_shed`` break ``shed`` down by cause: the tenant's own
    token-bucket policer vs. the brownout ladder shedding low-priority
    arrivals (queue-capacity sheds are the remainder). ``batches``
    counts coalesced submissions executed on the tenant's behalf when
    batch formation is armed (0 with batching off).
    """

    name: str
    arrived: int = 0
    admitted: int = 0
    shed: int = 0
    completed: int = 0
    failed: int = 0
    violations: int = 0
    rate_limited: int = 0
    brownout_shed: int = 0
    batches: int = 0
    latency: LatencyTracker = field(default_factory=LatencyTracker)
    queue_wait: LatencyTracker = field(default_factory=LatencyTracker)

    def goodput_rps(self, elapsed_s: float) -> float:
        """Non-failed completions within SLO, per second of sim time."""
        if elapsed_s <= 0:
            raise ValueError("elapsed_s must be positive")
        return (self.completed - self.failed - self.violations) / elapsed_s


@dataclass(frozen=True)
class QueueSample:
    """One sim-clock sample of frontend occupancy."""

    time: float
    queued: Dict[str, int]
    inflight: int

    @property
    def total_queued(self) -> int:
        return sum(self.queued.values())


class QueueTimeline(Sequence[QueueSample]):
    """A serving run's occupancy samples, read from the sampler's gauges.

    A read-only view over the ``inflight`` gauge's time and value
    columns and each tenant's ``queue_depth`` value column: reading an
    item builds its :class:`QueueSample`, and nothing else does.
    """

    __slots__ = ("times", "_inflight", "_queued")

    def __init__(
        self,
        times: Sequence[float],
        inflight: Sequence[float],
        queued: Dict[str, Sequence[float]],
    ) -> None:
        self.times = times
        self._inflight = inflight
        self._queued = queued

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return QueueSample(
            time=self.times[index],
            queued={
                name: int(depths[index])
                for name, depths in self._queued.items()
            },
            inflight=int(self._inflight[index]),
        )

    def totals(self) -> List[int]:
        """Each sample's :attr:`QueueSample.total_queued`."""
        if not self._queued:
            return [0] * len(self.times)
        return [
            sum(map(int, depths)) for depths in zip(*self._queued.values())
        ]


@dataclass
class ServeResult:
    """Everything one serving run produced.

    ``elapsed`` is the sim time at which the last admitted request
    completed (the queue-depth sampler may run marginally past it).
    """

    tenants: Dict[str, TenantStats]
    latency: LatencyTracker
    timeline: QueueTimeline
    elapsed: float
    slo_s: Optional[float] = None
    #: Per-request service records from the fronted system (arrival order).
    records: List["RequestRecord"] = field(default_factory=list)
    #: The run's telemetry (spans + metrics); write it out with
    #: :func:`repro.telemetry.write_artifact`.
    telemetry: Optional["Telemetry"] = None
    #: Observation-plane output (windowed rollups + burn-rate alert
    #: timeline), computed post hoc when the frontend's ``observation``
    #: config is armed. Never feeds back into the run or ``to_dict()``.
    rollups: Optional["RunRollups"] = None
    alerts: List["AlertEvent"] = field(default_factory=list)

    # -- aggregate counters --------------------------------------------------

    def _total(self, attr: str) -> int:
        return sum(getattr(t, attr) for t in self.tenants.values())

    @property
    def arrived(self) -> int:
        return self._total("arrived")

    @property
    def admitted(self) -> int:
        return self._total("admitted")

    @property
    def shed(self) -> int:
        return self._total("shed")

    @property
    def completed(self) -> int:
        return self._total("completed")

    @property
    def failed(self) -> int:
        return self._total("failed")

    @property
    def violations(self) -> int:
        return self._total("violations")

    def percentile(self, q: float) -> float:
        return self.latency.percentile(q)

    def per_tenant_slo_violations(
        self, slo_s: Optional[float] = None
    ) -> Dict[str, int]:
        """Per-tenant SLO-violation counts.

        With ``slo_s=None`` this reads the counters the frontend
        accumulated against its configured SLO (failed requests
        excluded, matching goodput). Passing an explicit ``slo_s``
        recounts from each tenant's retained latency samples — for
        what-if SLOs — and then counts *every* completed request,
        including failed ones.
        """
        if slo_s is None:
            return {name: t.violations for name, t in self.tenants.items()}
        if not slo_s > 0:
            raise ValueError("slo_s must be positive (not NaN)")
        return {
            name: t.latency.count_over(slo_s)
            for name, t in self.tenants.items()
        }

    def goodput_rps(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return (self.completed - self.failed - self.violations) / self.elapsed

    def max_queue_depth(self) -> int:
        totals = self.timeline.totals()
        return max(totals) if totals else 0

    def mean_queue_depth(self) -> float:
        """Time-weighted mean total queue depth over the run.

        Each sample holds until the next one (last-value-carried-forward,
        with the final sample extended to ``elapsed``), so irregular
        sampling periods — e.g. a sampler perturbed by bursty arrivals —
        don't bias the mean toward densely-sampled intervals. The old
        unweighted average remains as :meth:`mean_sampled_queue_depth`.
        """
        timeline = self.timeline
        totals = timeline.totals()
        if not totals:
            return 0.0
        return time_weighted_mean(
            [(t, float(total)) for t, total in zip(timeline.times, totals)],
            end=self.elapsed,
        )

    def mean_sampled_queue_depth(self) -> float:
        """Unweighted mean over samples (biased under uneven spacing)."""
        totals = self.timeline.totals()
        if not totals:
            return 0.0
        return sum(totals) / len(totals)

    def to_dict(self) -> Dict[str, object]:
        """Deterministic summary (stable key order, raw floats)."""
        return {
            "elapsed_s": self.elapsed,
            "slo_s": self.slo_s,
            "arrived": self.arrived,
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "failed": self.failed,
            "violations": self.violations,
            "goodput_rps": self.goodput_rps(),
            "latency": self.latency.summary() if self.latency.count else {},
            "max_queue_depth": self.max_queue_depth(),
            "tenants": {
                name: {
                    "arrived": t.arrived,
                    "admitted": t.admitted,
                    "shed": t.shed,
                    "rate_limited": t.rate_limited,
                    "brownout_shed": t.brownout_shed,
                    "completed": t.completed,
                    "failed": t.failed,
                    "violations": t.violations,
                    "batches": t.batches,
                    "latency": t.latency.summary() if t.latency.count else {},
                    "queue_wait": (
                        t.queue_wait.summary() if t.queue_wait.count else {}
                    ),
                }
                for name, t in self.tenants.items()
            },
        }
