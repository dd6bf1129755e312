"""Seeded arrival processes for the online serving layer.

Three request-arrival models drive the serving frontend's open-loop
traffic, covering the regimes the serving literature sweeps:

* :class:`PoissonArrivals` — memoryless arrivals at a fixed mean rate,
  the default for load/latency knee curves;
* :class:`DeterministicArrivals` — perfectly paced arrivals (the
  lowest-variance reference; isolates queueing caused by service-time
  variation from queueing caused by arrival burstiness);
* :class:`MMPPArrivals` — a two-state Markov-modulated Poisson process
  alternating quiet and burst phases, the standard bursty-traffic model.

A process object is an immutable *spec*: all randomness comes from the
caller-owned ``random.Random`` passed to :meth:`ArrivalProcess.interarrivals`,
so — like :mod:`repro.faults` — a seeded serving run replays its exact
arrival sequence, and :meth:`ArrivalProcess.scaled` re-rates a spec for
load sweeps without touching its shape parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterator, List, Union

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DeterministicArrivals",
    "MMPPArrivals",
    "RampArrivals",
    "ARRIVAL_KINDS",
    "make_arrivals",
    "arrival_times",
]


class ArrivalProcess:
    """Interface for arrival-time generators (immutable specs)."""

    @property
    def mean_rate_rps(self) -> float:
        """Long-run average arrival rate, requests per second."""
        raise NotImplementedError

    def interarrivals(self, rng: random.Random) -> Iterator[float]:
        """Infinite stream of interarrival gaps (seconds), drawn from ``rng``."""
        raise NotImplementedError

    def scaled(self, mean_rate_rps: float) -> "ArrivalProcess":
        """The same process shape re-rated to a new mean arrival rate."""
        raise NotImplementedError


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: exponential interarrival gaps at ``rate_rps``."""

    rate_rps: float

    def __post_init__(self) -> None:
        if not self.rate_rps > 0:
            raise ValueError(
                f"rate_rps must be positive (not NaN), got {self.rate_rps}"
            )

    @property
    def mean_rate_rps(self) -> float:
        return self.rate_rps

    def interarrivals(self, rng: random.Random) -> Iterator[float]:
        while True:
            yield rng.expovariate(self.rate_rps)

    def scaled(self, mean_rate_rps: float) -> "PoissonArrivals":
        return replace(self, rate_rps=mean_rate_rps)


@dataclass(frozen=True)
class DeterministicArrivals(ArrivalProcess):
    """Perfectly paced arrivals: a fixed ``1 / rate_rps`` gap."""

    rate_rps: float

    def __post_init__(self) -> None:
        if not self.rate_rps > 0:
            raise ValueError(
                f"rate_rps must be positive (not NaN), got {self.rate_rps}"
            )

    @property
    def mean_rate_rps(self) -> float:
        return self.rate_rps

    def interarrivals(self, rng: random.Random) -> Iterator[float]:
        gap = 1.0 / self.rate_rps
        while True:
            yield gap

    def scaled(self, mean_rate_rps: float) -> "DeterministicArrivals":
        return replace(self, rate_rps=mean_rate_rps)


@dataclass(frozen=True)
class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (bursty traffic).

    The process alternates a *quiet* phase (Poisson at ``base_rate_rps``)
    and a *burst* phase (Poisson at ``base_rate_rps * burst_factor``);
    phase dwell times are exponential with the given means. Phase
    switches mid-gap exploit the exponential's memorylessness: the
    residual wait is re-drawn at the new phase's rate, which is the
    exact MMPP construction, not a thinning approximation.
    """

    base_rate_rps: float
    burst_factor: float = 8.0
    mean_dwell_quiet_s: float = 0.5
    mean_dwell_burst_s: float = 0.1

    def __post_init__(self) -> None:
        for name in (
            "base_rate_rps", "mean_dwell_quiet_s", "mean_dwell_burst_s"
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive (not NaN)")
        if not self.burst_factor >= 1.0:
            raise ValueError("burst_factor must be >= 1 (not NaN)")

    @property
    def mean_rate_rps(self) -> float:
        """Time-weighted average of the two phase rates."""
        quiet, burst = self.mean_dwell_quiet_s, self.mean_dwell_burst_s
        return self.base_rate_rps * (
            (quiet + self.burst_factor * burst) / (quiet + burst)
        )

    def interarrivals(self, rng: random.Random) -> Iterator[float]:
        in_burst = False
        phase_left = rng.expovariate(1.0 / self.mean_dwell_quiet_s)
        while True:
            gap = 0.0
            while True:
                rate = self.base_rate_rps * (
                    self.burst_factor if in_burst else 1.0
                )
                draw = rng.expovariate(rate)
                if draw < phase_left:
                    phase_left -= draw
                    gap += draw
                    break
                # No arrival before the phase flips: advance to the flip
                # and re-draw the (memoryless) residual at the new rate.
                gap += phase_left
                in_burst = not in_burst
                dwell = (
                    self.mean_dwell_burst_s
                    if in_burst
                    else self.mean_dwell_quiet_s
                )
                phase_left = rng.expovariate(1.0 / dwell)
            yield gap

    def scaled(self, mean_rate_rps: float) -> "MMPPArrivals":
        if not mean_rate_rps > 0:
            raise ValueError("mean_rate_rps must be positive (not NaN)")
        factor = mean_rate_rps / self.mean_rate_rps
        return replace(self, base_rate_rps=self.base_rate_rps * factor)


@dataclass(frozen=True)
class RampArrivals(ArrivalProcess):
    """Piecewise-constant-rate Poisson: a load ramp in one process.

    ``segments`` is a sequence of ``(duration_s, rate_rps)`` legs walked
    once from t=0; after the last leg its rate holds forever. Within a
    leg arrivals are Poisson at the leg's rate, and a gap that straddles
    a leg boundary is re-drawn at the new rate from the boundary — the
    memorylessness construction :class:`MMPPArrivals` uses, so this is
    the exact inhomogeneous process, not a thinning approximation.
    Closed-loop controller tests ramp offered load through a knee with
    this while keeping the whole run one seeded, replayable process.
    """

    segments: "tuple"

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("need at least one (duration_s, rate_rps) leg")
        for duration, rate in self.segments:
            if not duration > 0:
                raise ValueError(
                    f"leg duration_s must be positive (not NaN): {duration}"
                )
            if not rate > 0:
                raise ValueError(
                    f"leg rate_rps must be positive (not NaN): {rate}"
                )

    @property
    def mean_rate_rps(self) -> float:
        """Time-weighted mean rate over the declared ramp span."""
        total = sum(duration for duration, _ in self.segments)
        return (
            sum(duration * rate for duration, rate in self.segments) / total
        )

    def interarrivals(self, rng: random.Random) -> Iterator[float]:
        index = 0
        leg_left = self.segments[0][0]
        while True:
            gap = 0.0
            while True:
                rate = self.segments[index][1]
                draw = rng.expovariate(rate)
                if index == len(self.segments) - 1 and leg_left <= 0:
                    # Past the ramp: the final rate holds forever.
                    gap += draw
                    break
                if draw < leg_left:
                    leg_left -= draw
                    gap += draw
                    break
                # No arrival before the leg ends: advance to the
                # boundary and re-draw the residual at the next rate.
                gap += leg_left
                if index < len(self.segments) - 1:
                    index += 1
                    leg_left = self.segments[index][0]
                else:
                    leg_left = 0.0
            yield gap

    def scaled(self, mean_rate_rps: float) -> "RampArrivals":
        if not mean_rate_rps > 0:
            raise ValueError("mean_rate_rps must be positive (not NaN)")
        factor = mean_rate_rps / self.mean_rate_rps
        return replace(
            self,
            segments=tuple(
                (duration, rate * factor)
                for duration, rate in self.segments
            ),
        )


ARRIVAL_KINDS = ("poisson", "deterministic", "mmpp")


def make_arrivals(kind: str, mean_rate_rps: float, **kwargs) -> ArrivalProcess:
    """Build an arrival process by name (``ARRIVAL_KINDS``).

    Extra keyword arguments go to the process constructor (e.g.
    ``burst_factor`` for ``"mmpp"``); the mean rate is always the first
    argument so sweep drivers can treat kinds interchangeably.
    """
    if kind == "poisson":
        return PoissonArrivals(mean_rate_rps, **kwargs)
    if kind == "deterministic":
        return DeterministicArrivals(mean_rate_rps, **kwargs)
    if kind == "mmpp":
        process = MMPPArrivals(base_rate_rps=mean_rate_rps, **kwargs)
        return process.scaled(mean_rate_rps)
    raise ValueError(
        f"unknown arrival kind {kind!r}; expected one of {ARRIVAL_KINDS}"
    )


def arrival_times(
    process: ArrivalProcess, seed_or_rng: Union[int, random.Random], n: int
) -> List[float]:
    """The first ``n`` absolute arrival times of ``process``.

    Accepts a seed (a fresh ``random.Random`` is built) or a live rng;
    mainly a determinism-testing and plotting helper.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, random.Random)
        else random.Random(seed_or_rng)
    )
    gaps = process.interarrivals(rng)
    times: List[float] = []
    now = 0.0
    for _ in range(n):
        now += next(gaps)
        times.append(now)
    return times
