"""The control plane facade :class:`DMXSystem` embeds.

One :class:`ControlPlane` owns the shared
:class:`~repro.resilience.health.HealthMonitor` and one
:class:`~repro.resilience.breaker.CircuitBreaker` per dispatch target
(created lazily, seeded deterministically per target), and mirrors every
breaker transition and reroute into the run's telemetry:

* counters ``breaker_transitions{target=..., to=...}`` and
  ``breaker_reroutes{target=...}``,
* instants ``breaker_open`` / ``breaker_half_open`` / ``breaker_closed``
  and ``breaker_reroute`` (with the reroute destination),

so the report CLI and run artifacts show when and why traffic was
steered. The per-target rng seed mixes the plane's seed with a CRC of
the target name — stable across runs and independent of the order in
which targets first see traffic.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from .breaker import BreakerConfig, BreakerDecision, BreakerState, \
    CircuitBreaker
from .health import HealthMonitor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import Telemetry

__all__ = ["ResilienceConfig", "ControlPlane"]


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything :class:`~repro.core.system.DMXSystem` needs to arm
    its control plane.

    An open breaker steers a motion stage to another DRX unit of the
    same placement (another standalone card, another switch's DRX)
    where the placement has one, before degrading to CPU restructuring.
    """

    seed: int = 0
    breaker: BreakerConfig = BreakerConfig()


class ControlPlane:
    """Health monitor + per-target breakers + telemetry mirroring."""

    def __init__(
        self,
        sim,
        telemetry: Optional["Telemetry"],
        config: ResilienceConfig = ResilienceConfig(),
    ):
        self.sim = sim
        self.config = config
        self._telemetry = telemetry
        self.monitor = HealthMonitor(telemetry)
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.reroutes = 0
        self.transitions = 0

    # -- breakers ------------------------------------------------------------

    def breaker(self, target: str) -> CircuitBreaker:
        """The target's breaker (created on first use)."""
        breaker = self._breakers.get(target)
        if breaker is None:
            seed = (
                zlib.crc32(target.encode("utf-8")) ^ self.config.seed
            ) & 0xFFFFFFFF
            breaker = CircuitBreaker(
                self.sim,
                target,
                self.monitor,
                self.config.breaker,
                rng=random.Random(seed),
                on_transition=self._record_transition,
            )
            self._breakers[target] = breaker
        return breaker

    def admit(self, target: str) -> BreakerDecision:
        """Dispatch-side gate: may a request use ``target`` right now?"""
        return self.breaker(target).allow()

    def record(
        self,
        target: str,
        ok: bool,
        latency_s: Optional[float] = None,
        probe: bool = False,
    ) -> None:
        """Fold one dispatch outcome back into the target's breaker."""
        self.breaker(target).record(ok, latency_s, probe=probe)

    def _record_transition(
        self, breaker: CircuitBreaker, old: BreakerState, new: BreakerState
    ) -> None:
        self.transitions += 1
        t = self._telemetry
        if t is None:
            return
        t.counter(
            "breaker_transitions", target=breaker.target, to=new.value
        ).inc()
        t.instant(
            f"breaker_{new.value}", "breaker", actor=breaker.target,
            state=new.value, **{"from": old.value},
        )

    def note_reroute(self, target: str, to: str, request_id: int) -> None:
        """One request steered away from ``target`` (to another unit or
        to CPU restructuring) by an open breaker."""
        self.reroutes += 1
        t = self._telemetry
        if t is None:
            return
        t.counter("breaker_reroutes", target=target).inc()
        t.instant(
            "breaker_reroute", "breaker", actor=target,
            request_id=request_id, to=to,
        )

    # -- decommission / revival ----------------------------------------------

    def mark_dead(self, target: str) -> None:
        """Decommission ``target``: its breaker goes DEAD (no traffic,
        no cooldown-driven half-open) until :meth:`revive`."""
        self.breaker(target).mark_dead()

    def revive(self, target: str, cooldown_s: float = 0.0) -> None:
        """Re-admit a revived domain through half-open probing."""
        self.breaker(target).revive(cooldown_s)

    def dead_targets(self) -> List[str]:
        """Decommissioned targets, sorted."""
        return sorted(
            target
            for target, breaker in self._breakers.items()
            if breaker.state is BreakerState.DEAD
        )

    # -- queries -------------------------------------------------------------

    def open_targets(self) -> List[str]:
        """Targets whose breaker is OPEN or HALF_OPEN, sorted.

        Terminal ``DEAD`` breakers are *not* open: a decommissioned
        domain is not recoverable traffic-steering state, and conflating
        the two made ``summary()["open"]`` (and the report CLI) claim a
        dead card might come back on its own. Dead targets are reported
        separately via :meth:`dead_targets`.
        """
        return sorted(
            target
            for target, breaker in self._breakers.items()
            if breaker.state
            not in (BreakerState.CLOSED, BreakerState.DEAD)
        )

    def summary(self) -> Dict[str, object]:
        """Deterministic control-plane digest for reports/examples."""
        return {
            "transitions": self.transitions,
            "reroutes": self.reroutes,
            "open": self.open_targets(),
            "dead": self.dead_targets(),
            "health": self.monitor.summary(),
        }
