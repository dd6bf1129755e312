"""Windowed health scores per target (DRX unit, accelerator, link).

The health monitor is the *sensing* half of the resilience control
plane: every DRX-leg outcome — success, or a recoverable failure
(deadline blown, injected fault, retries exhausted) — is recorded per
**target** into a bounded sliding window, and simultaneously folded
into the shared metrics registry:

* ``drx_outcomes{target=..., ok=...}`` counters,
* a ``health_score{target=...}`` gauge timeline on the sim clock,
* a ``drx_leg_latency{target=...}`` histogram of leg service times,

so run artifacts and ``python -m repro.telemetry`` reports see exactly
the signals the circuit breakers acted on.

Health is the success fraction over the last ``window`` observations —
1.0 for a target that has never been exercised (innocent until proven
sick). The window is deliberately small: the point is to react within a
handful of requests; the breaker layers its own hysteresis (minimum
observations, cooldown backoff, fresh window on close) on top.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import Telemetry

__all__ = ["HealthConfig", "HealthMonitor"]


@dataclass(frozen=True)
class HealthConfig:
    """Sliding-window sizing for health scoring."""

    window: int = 8

    def __post_init__(self) -> None:
        if not self.window >= 1:
            raise ValueError("window must be >= 1 (not NaN)")


class HealthMonitor:
    """Per-target sliding windows of operation outcomes.

    ``telemetry=None`` keeps the monitor fully functional for the
    breakers while skipping registry publication — the configuration
    unit tests use it bare.
    """

    def __init__(
        self,
        telemetry: Optional["Telemetry"] = None,
        config: HealthConfig = HealthConfig(),
    ):
        self.config = config
        self._telemetry = telemetry
        self._windows: Dict[str, Deque[bool]] = {}
        self._ok_counters: Dict[str, object] = {}
        self._fail_counters: Dict[str, object] = {}
        self._latency_hists: Dict[str, object] = {}

    # -- recording -----------------------------------------------------------

    def record(
        self, target: str, ok: bool, latency_s: Optional[float] = None
    ) -> None:
        """Fold one operation outcome on ``target`` into its window."""
        window = self._windows.get(target)
        if window is None:
            window = deque(maxlen=self.config.window)
            self._windows[target] = window
        window.append(ok)
        t = self._telemetry
        if t is None:
            return
        counters = self._ok_counters if ok else self._fail_counters
        counter = counters.get(target)
        if counter is None:
            counter = t.counter(
                "drx_outcomes", target=target, ok="true" if ok else "false"
            )
            counters[target] = counter
        counter.inc()
        t.sample_gauge("health_score", self.health(target), target=target)
        if latency_s is not None:
            hist = self._latency_hists.get(target)
            if hist is None:
                hist = t.histogram("drx_leg_latency", target=target)
                self._latency_hists[target] = hist
            hist.observe(latency_s)

    def reset(self, target: str) -> None:
        """Forget a target's window (a breaker closing turns the page:
        stale failures can no longer contribute to a re-trip)."""
        window = self._windows.get(target)
        if window is not None:
            window.clear()
        if self._telemetry is not None:
            self._telemetry.sample_gauge("health_score", 1.0, target=target)

    # -- queries -------------------------------------------------------------

    def health(self, target: str) -> float:
        """Success fraction over the target's window (1.0 if unseen)."""
        window = self._windows.get(target)
        if not window:
            return 1.0
        return sum(window) / len(window)

    def failure_fraction(self, target: str) -> float:
        return 1.0 - self.health(target)

    def observations(self, target: str) -> int:
        """Outcomes currently in the window (saturates at ``window``)."""
        window = self._windows.get(target)
        return len(window) if window is not None else 0

    def targets(self) -> List[str]:
        """Targets seen so far, in deterministic (sorted) order."""
        return sorted(self._windows)

    def summary(self) -> Dict[str, float]:
        """Current health per target (for reports and examples)."""
        return {target: self.health(target) for target in self.targets()}
