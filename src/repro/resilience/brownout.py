"""The brownout ladder: graceful degradation driven by SLO headroom.

When the client-observed tail latency approaches the SLO, the serving
frontend climbs a ladder of progressively blunter interventions instead
of falling off a cliff:

====================  =====================================================
tier                  intervention
====================  =====================================================
``NORMAL``            none
``SHED_LOW``          shed arrivals from low-priority tenants at the door
``COALESCE``          dispatch with tenant affinity, so completion
                      notifications batch under the driver's NAPI-style
                      coalescing and DRX configuration stays warm
``FORCE_CPU``         submit requests with ``force_cpu=True`` — motion
                      stages restructure on the host, trading per-request
                      latency for not queueing behind a sick/saturated
                      DRX path
====================  =====================================================

The controller watches a sliding window of recent latencies and compares
the windowed tail quantile against the SLO: at or above
``escalate_at * slo`` it steps up one tier; at or below
``deescalate_at * slo`` it steps down one. The gap between the two
thresholds plus a minimum dwell time between changes is the hysteresis
that keeps the ladder from oscillating at a boundary.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from ..sim.tracing import exact_percentile

__all__ = ["BrownoutTier", "BrownoutConfig", "BrownoutController"]


class BrownoutTier(enum.IntEnum):
    """Degradation tiers, ordered by severity (comparable as ints)."""

    NORMAL = 0
    SHED_LOW = 1
    COALESCE = 2
    FORCE_CPU = 3


@dataclass(frozen=True)
class BrownoutConfig:
    """Ladder thresholds and hysteresis.

    ``shed_max_priority``: at ``SHED_LOW`` and above, arrivals from
    tenants with ``priority <= shed_max_priority`` are shed at the door.
    ``max_tier`` caps how far the ladder may climb (e.g. stop at
    ``COALESCE`` for a deployment that never degrades to CPU).
    """

    window: int = 32
    min_samples: int = 8
    quantile: float = 0.99
    escalate_at: float = 1.0
    deescalate_at: float = 0.7
    min_dwell_s: float = 10e-3
    update_period_s: float = 2e-3
    shed_max_priority: int = 0
    max_tier: BrownoutTier = BrownoutTier.FORCE_CPU

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 1 <= self.min_samples <= self.window:
            raise ValueError("min_samples must be in [1, window]")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if self.escalate_at <= 0:
            raise ValueError("escalate_at must be positive")
        if not 0.0 <= self.deescalate_at < self.escalate_at:
            raise ValueError("deescalate_at must be in [0, escalate_at)")
        if not self.min_dwell_s >= 0:
            raise ValueError("min_dwell_s must be >= 0 (not NaN)")
        if not self.update_period_s > 0:
            raise ValueError("update_period_s must be positive (not NaN)")


class BrownoutController:
    """Sliding-window tail latency → degradation tier."""

    def __init__(self, slo_s: float, config: BrownoutConfig = BrownoutConfig()):
        if not slo_s > 0:
            raise ValueError("slo_s must be positive (not NaN)")
        self.slo_s = slo_s
        self.config = config
        self.tier = BrownoutTier.NORMAL
        self._window: Deque[float] = deque(maxlen=config.window)
        # None until the first tier change: a fresh controller has no
        # change to dwell on, so the ladder may move at any ``now``
        # (including now < min_dwell_s — the first-window bug this
        # replaces pinned the ladder at NORMAL for a whole dwell).
        self._last_change: Optional[float] = None
        #: (time, tier) history, starting implicitly at NORMAL.
        self.history: List[Tuple[float, BrownoutTier]] = []

    def observe(self, latency_s: float) -> None:
        """Push one completed request's client-observed latency."""
        self._window.append(latency_s)

    def windowed_tail(self) -> Optional[float]:
        """The window's tail quantile, or None below ``min_samples``."""
        if len(self._window) < self.config.min_samples:
            return None
        return exact_percentile(sorted(self._window), self.config.quantile)

    def update(
        self, now: float
    ) -> Optional[Tuple[BrownoutTier, BrownoutTier]]:
        """Evaluate the ladder at ``now``; returns ``(old, new)`` on a
        tier change, else None. At most one step per call, and never
        within ``min_dwell_s`` of the previous change."""
        if not self._may_change(now):
            return None
        tail = self.windowed_tail()
        if tail is None:
            return None
        old = self.tier
        if (
            tail >= self.config.escalate_at * self.slo_s
            and self.tier < self.config.max_tier
        ):
            self.tier = BrownoutTier(self.tier + 1)
        elif (
            tail <= self.config.deescalate_at * self.slo_s
            and self.tier > BrownoutTier.NORMAL
        ):
            self.tier = BrownoutTier(self.tier - 1)
        if self.tier is old:
            return None
        self._last_change = now
        self.history.append((now, self.tier))
        return (old, self.tier)

    def _may_change(self, now: float) -> bool:
        """Dwell gate: True when a tier change at ``now`` is allowed.

        Before the first change there is nothing to dwell on — the
        ladder may move immediately.
        """
        if self._last_change is None:
            return True
        return now - self._last_change >= self.config.min_dwell_s

    def set_tier(
        self, now: float, tier: BrownoutTier
    ) -> Optional[Tuple[BrownoutTier, BrownoutTier]]:
        """Controller-driven tier override (the closed-loop cost model
        in :mod:`repro.control` picks a target tier directly instead of
        stepping the ladder). Honors the same dwell hysteresis and
        ``max_tier`` cap as :meth:`update`; returns ``(old, new)`` on a
        change, else None."""
        if tier > self.config.max_tier:
            tier = self.config.max_tier
        if tier is self.tier or not self._may_change(now):
            return None
        old = self.tier
        self.tier = tier
        self._last_change = now
        self.history.append((now, self.tier))
        return (old, self.tier)
