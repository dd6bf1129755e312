"""Circuit breakers over DRX dispatch: closed / open / half-open / dead.

A :class:`CircuitBreaker` guards one dispatch target (one DRX unit).
In ``CLOSED`` state traffic flows; when the target's windowed failure
fraction (from the shared :class:`~repro.resilience.health.HealthMonitor`)
crosses the threshold — with a minimum number of observations, so one
unlucky request cannot trip it — the breaker ``OPEN``\\ s and the system
routes around the target *without* burning per-request deadline budget.
After a cooldown the breaker goes ``HALF_OPEN`` and admits a single
**probe** request at a time; enough consecutive probe successes close
it, one probe failure re-opens it with an exponentially longer cooldown.

Hysteresis against flapping comes from three places:

* a trip requires ``min_observations`` outcomes in the window, and
  closing resets the window — so a freshly closed breaker needs a fresh
  body of evidence to re-open;
* re-trips back off: each consecutive open multiplies the cooldown
  (``cooldown_multiplier``, capped);
* only one probe is in flight at a time, and ``probe_successes``
  consecutive successes are needed to close.

Probes are *seeded deterministic*: the optional cooldown jitter draws
from a per-breaker ``random.Random``, so equal-seed runs replay
byte-identically (the same determinism contract as the fault injector).

The breaker only needs a ``.now`` attribute from its clock, so unit
tests drive it with a plain object; in the system it reads the DES
simulator directly.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

from .health import HealthMonitor

__all__ = ["BreakerState", "BreakerConfig", "BreakerDecision",
           "CircuitBreaker"]


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"
    #: Decommissioned: the target's failure domain crashed. Unlike OPEN,
    #: DEAD never half-opens on a cooldown — only an explicit
    #: :meth:`CircuitBreaker.revive` (the domain coming back) re-admits
    #: it, and it does so through the normal half-open probe path.
    DEAD = "dead"


class BreakerDecision(NamedTuple):
    """Outcome of :meth:`CircuitBreaker.allow` for one dispatch."""

    allow: bool
    probe: bool


@dataclass(frozen=True)
class BreakerConfig:
    """Trip threshold, cooldown schedule, and probe policy.

    ``failure_threshold`` is the windowed *failure fraction* at which a
    closed breaker trips (once ``min_observations`` outcomes are in the
    window). ``cooldown_s`` is the first open period; consecutive opens
    multiply it by ``cooldown_multiplier`` up to ``cooldown_cap_s``.
    ``jitter`` adds a seeded fractional perturbation to each cooldown
    (0 disables it; determinism holds either way — the draw comes from
    the breaker's own seeded rng).
    """

    failure_threshold: float = 0.5
    min_observations: int = 4
    cooldown_s: float = 25e-3
    cooldown_multiplier: float = 2.0
    cooldown_cap_s: float = 400e-3
    probe_successes: int = 2
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if not self.min_observations >= 1:
            raise ValueError("min_observations must be >= 1 (not NaN)")
        if not self.cooldown_s > 0:
            raise ValueError("cooldown_s must be positive (not NaN)")
        if not self.cooldown_multiplier >= 1.0:
            raise ValueError("cooldown_multiplier must be >= 1 (not NaN)")
        if not self.cooldown_cap_s >= self.cooldown_s:
            raise ValueError(
                "cooldown_cap_s must be >= cooldown_s (not NaN)"
            )
        if not self.probe_successes >= 1:
            raise ValueError("probe_successes must be >= 1 (not NaN)")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")


class CircuitBreaker:
    """One target's breaker state machine.

    ``on_transition(breaker, old, new)`` fires on every state change
    (the control plane uses it for telemetry instants and counters).
    """

    def __init__(
        self,
        clock,
        target: str,
        monitor: HealthMonitor,
        config: BreakerConfig = BreakerConfig(),
        rng: Optional[random.Random] = None,
        on_transition: Optional[
            Callable[["CircuitBreaker", BreakerState, BreakerState], None]
        ] = None,
    ):
        self.clock = clock
        self.target = target
        self.monitor = monitor
        self.config = config
        self._rng = rng
        self._on_transition = on_transition
        self.state = BreakerState.CLOSED
        self.open_until = 0.0
        #: (time, new state) history — deterministic, test- and
        #: report-friendly.
        self.transitions: List[Tuple[float, BreakerState]] = []
        self.trips = 0
        self._consecutive_opens = 0
        self._probe_ok = 0
        self._probe_inflight = False

    # -- state machine -------------------------------------------------------

    def _transition(self, new: BreakerState) -> None:
        old = self.state
        self.state = new
        self.transitions.append((self.clock.now, new))
        if self._on_transition is not None:
            self._on_transition(self, old, new)

    def _cooldown(self) -> float:
        cfg = self.config
        cooldown = min(
            cfg.cooldown_s * cfg.cooldown_multiplier ** self._consecutive_opens,
            cfg.cooldown_cap_s,
        )
        if cfg.jitter > 0.0 and self._rng is not None:
            cooldown *= 1.0 + cfg.jitter * self._rng.random()
        return cooldown

    def _trip(self, cooldown_s: Optional[float] = None) -> None:
        self.trips += 1
        self.open_until = self.clock.now + (
            self._cooldown() if cooldown_s is None else cooldown_s
        )
        self._consecutive_opens += 1
        self._probe_ok = 0
        self._probe_inflight = False
        self._transition(BreakerState.OPEN)

    def _close(self) -> None:
        self._consecutive_opens = 0
        self._probe_ok = 0
        self._probe_inflight = False
        # Turn the page: a freshly closed breaker needs fresh evidence
        # (>= min_observations new outcomes) before it can re-open.
        self.monitor.reset(self.target)
        self._transition(BreakerState.CLOSED)

    # -- the dispatch-side API -----------------------------------------------

    def allow(self) -> BreakerDecision:
        """May a request dispatch to this target right now?

        Closed: yes. Open: no until the cooldown elapses, at which point
        the breaker half-opens. Half-open: one probe at a time.
        """
        if self.state is BreakerState.DEAD:
            return BreakerDecision(False, False)
        if self.state is BreakerState.OPEN:
            if self.clock.now < self.open_until:
                return BreakerDecision(False, False)
            self._transition(BreakerState.HALF_OPEN)
        if self.state is BreakerState.HALF_OPEN:
            if self._probe_inflight:
                return BreakerDecision(False, False)
            self._probe_inflight = True
            return BreakerDecision(True, True)
        return BreakerDecision(True, False)

    def record(
        self,
        ok: bool,
        latency_s: Optional[float] = None,
        probe: bool = False,
    ) -> None:
        """Fold one dispatch outcome back into the breaker.

        ``probe`` must echo the :class:`BreakerDecision` that admitted
        the dispatch, so a straggler admitted before a trip cannot be
        mistaken for the half-open probe's verdict.
        """
        self.monitor.record(self.target, ok, latency_s)
        if self.state is BreakerState.DEAD:
            # Stragglers admitted before the decommission still report;
            # their outcomes inform health but cannot transition a dead
            # breaker — only revive() can.
            return
        if probe and self.state is BreakerState.HALF_OPEN:
            self._probe_inflight = False
            if ok:
                self._probe_ok += 1
                if self._probe_ok >= self.config.probe_successes:
                    self._close()
            else:
                self._trip()
            return
        if self.state is BreakerState.CLOSED and not ok:
            cfg = self.config
            if (
                self.monitor.observations(self.target) >= cfg.min_observations
                and self.monitor.failure_fraction(self.target)
                >= cfg.failure_threshold
            ):
                self._trip()

    def force_open(self, cooldown_s: Optional[float] = None) -> None:
        """Operator hook: open the breaker now regardless of health
        (drain a unit for maintenance; also the deterministic lever the
        system tests pull). ``cooldown_s`` overrides the schedule."""
        if self.state is BreakerState.DEAD:
            return
        if self.state is not BreakerState.OPEN:
            self._trip(cooldown_s=cooldown_s)
        elif cooldown_s is not None:
            self.open_until = self.clock.now + cooldown_s

    # -- decommission / revival ----------------------------------------------

    def mark_dead(self) -> None:
        """Decommission the target: no traffic, no cooldown-driven
        half-open. Idempotent."""
        if self.state is BreakerState.DEAD:
            return
        self.trips += 1
        self._probe_ok = 0
        self._probe_inflight = False
        self.open_until = float("inf")
        self._transition(BreakerState.DEAD)

    def revive(self, cooldown_s: float = 0.0) -> None:
        """Re-admit a revived domain *through half-open probing*: the
        breaker moves DEAD → OPEN with an (optionally zero) cooldown, so
        the next :meth:`allow` half-opens and sends a single probe; only
        ``probe_successes`` consecutive probe wins close it. The health
        window is reset — a revived domain starts from fresh evidence."""
        if self.state is not BreakerState.DEAD:
            return
        self.monitor.reset(self.target)
        self._consecutive_opens = 0
        self._probe_ok = 0
        self._probe_inflight = False
        self.open_until = self.clock.now + cooldown_s
        self._transition(BreakerState.OPEN)
