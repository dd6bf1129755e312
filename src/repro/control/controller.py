"""The unified closed-loop controller.

One :class:`ClosedLoopController` runs on the sim clock inside a
:class:`~repro.serve.frontend.ServingFrontend` and closes the loop over
every actuator the serving and resilience planes expose, from one
sensing substrate — windowed per-tenant and global tail latency vs. the
SLO, read from the frontend's own latency trackers
(:meth:`~repro.serve.slo.LatencyTracker.tail`), plus the live
:class:`~repro.resilience.health.HealthMonitor` scores:

* **WRR weights** — tenants burning their SLO headroom get more
  dispatch share, tenants with headroom give it back
  (:meth:`ServingFrontend.set_weight`, the live-weight surface);
* **brownout tier** — instead of one-step ladder walking, the
  :class:`~repro.control.cost.TierCostModel` prices every tier on live
  backend estimates and the cheapest *sufficient* tier wins
  (:meth:`BrownoutController.set_tier`);
* **DRX capacity** — a standby pool of standalone cards is commissioned
  (``ControlPlane.revive``) as windowed p99 approaches the SLO and
  decommissioned (``ControlPlane.mark_dead``) when headroom returns;
* **placement** — chains are re-packed onto the in-service cards to
  minimize load-weighted upstream crossings, live-migrating a tenant
  (:meth:`DMXSystem.migrate_app`) only at request boundaries:
  immediately when the tenant is idle, otherwise deferred to its next
  request completion.

Every actuator carries its own dwell-time hysteresis, every decision is
mirrored into telemetry (``controller_*`` instants, a
``controller_actions`` counter per kind), and the whole loop is
deterministic: sensing reads recorded latencies and pure cost
estimates, actuation happens at fixed update periods on the sim clock,
and no controller path touches an RNG. A frontend with
``controller=None`` runs byte-identically to a frontend built before
this module existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from ..resilience.brownout import SHED_MAX_PRIORITY
from .cost import TierCostModel
from .placement import plan_placement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serve.frontend import ServingFrontend
    from ..serve.slo import LatencyTracker, TenantStats

__all__ = ["ControllerConfig", "ClosedLoopController"]


#: Control period on the sim clock.
UPDATE_PERIOD_S = 2e-3
#: Per-tenant (and global) sliding latency window.
WINDOW = 32
MIN_SAMPLES = 4
QUANTILE = 0.99
#: Steer windowed tails toward ``TARGET_FRACTION * slo``.
TARGET_FRACTION = 0.85

# (a) WRR weight driver
MIN_WEIGHT = 1
MAX_WEIGHT = 8
WEIGHT_DWELL_S = 4e-3

# (c) DRX capacity autoscaler
SCALE_UP_AT = 0.85
SCALE_DOWN_AT = 0.35
SCALE_DWELL_S = 8e-3

# (d) placement optimizer
PLACEMENT_DWELL_S = 6e-3
MAX_MIGRATIONS_PER_UPDATE = 1


@dataclass(frozen=True)
class ControllerConfig:
    """Arms the closed-loop controller on a serving frontend.

    The controller always drives WRR weights and placement. It drives
    the brownout tier exactly when the frontend has a brownout ladder
    (the controller picks the tier; the ladder's machinery applies it,
    and the ladder's own loop stands down), which needs a mode with DRX
    units to price (not ALL_CPU or MULTI_AXL). A non-zero
    ``standby_cards`` pool arms the capacity autoscaler; it requires
    the fronted system's resilience control plane (commission /
    decommission ride the breaker revive / mark-dead machinery).
    """

    #: De-escalate only once the windowed tail is back under this
    #: fraction of the SLO — the dual-threshold band the open-loop
    #: ladder has; without it the tier limit-cycles at the dwell period
    #: (shed drains the queue, the tail dips, NORMAL refills it).
    deescalate_fraction: float = 0.7
    #: Standalone cards the capacity autoscaler may park (inert at 0).
    standby_cards: int = 0

    def __post_init__(self) -> None:
        if not self.standby_cards >= 0:
            raise ValueError("standby_cards must be >= 0 (not NaN)")
        if not 0.0 < self.deescalate_fraction <= TARGET_FRACTION:
            raise ValueError(
                "deescalate_fraction must be in (0, TARGET_FRACTION] "
                "(not NaN)"
            )


class _Tenant(NamedTuple):
    """One tenant's handles, resolved at arm time."""

    name: str
    stats: "TenantStats"
    app_index: int
    base_weight: int
    sheddable: bool


class ClosedLoopController:
    """Sense windowed tails + health; drive weights, tier, capacity,
    and placement. Owned and clocked by a :class:`ServingFrontend`."""

    def __init__(self, frontend: "ServingFrontend",
                 config: ControllerConfig):
        if frontend.config.slo_s is None:
            raise ValueError("the closed-loop controller requires slo_s")
        brownout = frontend._brownout
        mode = frontend.system.config.mode
        if brownout is not None and not mode.uses_drx:
            raise ValueError(
                "the controller prices the brownout tiers on DRX legs; "
                f"mode {mode.value!r} has no DRX (arm the ladder without "
                "the controller)"
            )
        self.frontend = frontend
        self.system = frontend.system
        self.config = config
        self.slo_s = frontend.config.slo_s
        self.telemetry = frontend.telemetry
        #: The headroom target the weight driver's pressure divides by.
        self._target_s = TARGET_FRACTION * self.slo_s
        #: Nothing here changes after arm time, so a tick reads it
        #: instead of looking each tenant up again.
        self._tenants = [
            _Tenant(
                t.name, frontend._stats[t.name], frontend._app_index[t.name],
                t.weight, t.priority <= SHED_MAX_PRIORITY,
            )
            for t in frontend.tenants
        ]
        self._last_weight_change: Dict[str, Optional[float]] = {
            t.name: None for t in frontend.tenants
        }
        self._last_scale: Optional[float] = None
        self._last_migration: Optional[float] = None
        #: (sim time, kind, human-readable detail) — the demo/report feed.
        self.actions: List[Tuple[float, str, str]] = []
        self._tenant_of_app: Dict[int, str] = {
            app: name for name, app in frontend._app_index.items()
        }
        #: Admitted counts at the last placement pass: placement loads
        #: are the deltas since, so a tenant idle (or shed) for a while
        #: stops counting as hot no matter its lifetime totals.
        self._admitted_snapshot: Dict[str, int] = {
            t.name: 0 for t in frontend.tenants
        }
        #: Planned moves waiting for their tenant's next request
        #: boundary: app index -> (from card, to card, urgent). A busy
        #: tenant is *deferred*, never dropped — a continuously
        #: backlogged tenant would otherwise be unmigratable exactly
        #: when moving it matters most.
        self._pending_migration: Dict[int, Tuple[str, str, bool]] = {}
        #: Sorted standalone cards; the topology is fixed once built.
        self._cards: List[str] = self.system.standalone_cards()
        cards = self._cards
        if config.standby_cards > 0:
            if self.system.control is None:
                raise ValueError(
                    "standby_cards requires the system's resilience "
                    "control plane (DMXSystem(..., resilience=...))"
                )
            if config.standby_cards >= len(cards):
                raise ValueError(
                    f"standby_cards={config.standby_cards} would leave "
                    f"no card in service (system has {len(cards)})"
                )
        #: Cards the autoscaler may park; the tail of the sorted card
        #: list, so the first cards (hosting the first chains) stay up.
        self._pool: List[str] = (
            cards[len(cards) - config.standby_cards:]
            if config.standby_cards
            else []
        )
        self._parked: List[str] = []
        #: Built exactly when the frontend has a ladder: the controller
        #: then owns the tier, and the ladder's own loop stands down.
        self._tier_model: Optional[TierCostModel] = (
            TierCostModel(self.system, brownout.config.max_tier)
            if brownout is not None
            else None
        )

    # -- sensing ---------------------------------------------------------------

    def _tail(self, latency: "LatencyTracker") -> Optional[float]:
        return latency.tail(QUANTILE, WINDOW, MIN_SAMPLES)

    def global_tail(self) -> Optional[float]:
        return self._tail(self.frontend._latency)

    def _shed_fraction(self) -> float:
        """Load share of tenants the SHED_LOW tier would shed."""
        total = sheddable = 0
        for tenant in self._tenants:
            admitted = tenant.stats.admitted
            total += admitted
            if tenant.sheddable:
                sheddable += admitted
        return sheddable / total if total else 0.0

    # -- bookkeeping -----------------------------------------------------------

    def _note(self, now: float, kind: str, detail: str, **attrs) -> None:
        self.actions.append((now, kind, detail))
        self.telemetry.counter("controller_actions", kind=kind).inc()
        self.telemetry.instant(f"controller_{kind}", "controller", **attrs)

    def _dead_cards(self) -> List[str]:
        control = self.system.control
        if control is not None:
            return control.dead_targets()
        return list(self._parked)

    def _card_health(self, card: str) -> float:
        control = self.system.control
        if control is None:
            return 1.0
        return control.monitor.health(card)

    # -- lifecycle -------------------------------------------------------------

    def start(self, now: float = 0.0) -> None:
        """Arm-time pass, before any traffic: park the standby pool and
        settle the initial placement so the run starts on the scaled-in
        configuration rather than discovering it mid-ramp."""
        for card in self._pool:
            self.system.control.mark_dead(card)
            self._parked.append(card)
            self._note(
                now, "scale_down", f"parked standby card {card}",
                card=card, in_service=self._in_service_count(),
            )
        self._run_placement(now, initial=True)
        if self._tier_model is not None:
            self.telemetry.metrics.gauge("brownout_tier").sample(
                now, int(self.frontend._brownout.tier)
            )

    def _in_service_count(self) -> int:
        dead = set(self._dead_cards())
        return sum(1 for c in self._cards if c not in dead)

    # -- the update ------------------------------------------------------------

    def update(self, now: float) -> None:
        """One control period: sense, then drive each armed actuator.

        A tick with nothing to do is cheap: a tail no new sample moved
        is not re-sorted, the tier ladder is priced only on overshoot
        (or for the note of a tier change), and placement stops before
        its passes when no app could move.
        """
        self._drive_weight(now)
        tail = self.global_tail()
        if tail is not None:
            # The tails are often np.float64; the arithmetic below gives
            # the same values on a Python float, at a fraction of the
            # cost per operation.
            tail = float(tail)
            if self._tier_model is not None:
                self._drive_tier(now, tail)
            if self._pool:
                self._drive_capacity(now, tail)
        self._run_placement(now)

    # (a) -- WRR weights -------------------------------------------------------

    def _drive_weight(self, now: float) -> None:
        standalone = bool(self._cards)
        for name, stats, app_index, base_weight, _ in self._tenants:
            tail = self._tail(stats.latency)
            if tail is None:
                continue
            last = self._last_weight_change[name]
            if last is not None and now - last < WEIGHT_DWELL_S:
                continue
            tail = float(tail)
            pressure = min(2.0, max(0.5, tail / self._target_s))
            health = self._card_health(
                self.system.card_of_app(app_index) if standalone else name
            )
            raw = base_weight * pressure * health
            weight = max(MIN_WEIGHT, min(MAX_WEIGHT, round(raw)))
            current = self.frontend.weight(name)
            if weight == current:
                continue
            self.frontend.set_weight(name, weight)
            self._last_weight_change[name] = now
            self._note(
                now, "weight",
                f"{name}: weight {current} -> {weight} "
                f"(p99 {tail * 1e3:.2f}ms, health {health:.2f})",
                tenant=name, **{"from": current, "to": weight},
            )

    # (b) -- cost-model tier ---------------------------------------------------

    def _drive_tier(self, now: float, tail: float) -> None:
        brownout = self.frontend._brownout
        shed_fraction = self._shed_fraction()
        chosen, bids = self._tier_model.choose(
            tail, self.slo_s, TARGET_FRACTION, shed_fraction,
        )
        if (
            chosen < brownout.tier
            and tail > self.config.deescalate_fraction * self.slo_s
        ):
            # Inside the hysteresis band: the current tier bought this
            # tail; dropping it on the first good window refills the
            # queue and flaps at the dwell period.
            return
        change = brownout.set_tier(now, chosen)
        if change is None:
            return
        if bids is None:
            # Inside the headroom target nothing was priced; the note
            # still shows the ladder's bids. Pricing reads no state a
            # tier change writes, so these are the bids of this tick.
            bids = self._tier_model.bids(self.slo_s, shed_fraction)
        old, new = change
        self.telemetry.metrics.gauge("brownout_tier").sample(now, int(new))
        self._note(
            now, "tier",
            f"tier {old.name} -> {new.name} "
            f"(p99 {tail * 1e3:.2f}ms vs SLO {self.slo_s * 1e3:.2f}ms; "
            + "; ".join(b.describe() for b in bids) + ")",
            **{"from": old.name, "to": new.name},
        )

    # (c) -- capacity ----------------------------------------------------------

    def _drive_capacity(self, now: float, tail: float) -> None:
        if (
            self._last_scale is not None
            and now - self._last_scale < SCALE_DWELL_S
        ):
            return
        if tail >= SCALE_UP_AT * self.slo_s and self._parked:
            card = self._parked.pop(0)
            self.system.control.revive(card, cooldown_s=0.0)
            self._last_scale = now
            self._note(
                now, "scale_up",
                f"commissioned {card} "
                f"(p99 {tail * 1e3:.2f}ms >= "
                f"{SCALE_UP_AT:.2f}x SLO)",
                card=card, in_service=self._in_service_count(),
            )
        elif tail <= SCALE_DOWN_AT * self.slo_s:
            in_service = [c for c in self._pool if c not in self._parked]
            if not in_service:
                return
            card = in_service[-1]
            self.system.control.mark_dead(card)
            self._parked.append(card)
            self._parked.sort()
            self._last_scale = now
            self._note(
                now, "scale_down",
                f"decommissioned {card} "
                f"(p99 {tail * 1e3:.2f}ms <= "
                f"{SCALE_DOWN_AT:.2f}x SLO)",
                card=card, in_service=self._in_service_count(),
            )

    # (d) -- placement ---------------------------------------------------------

    def _migratable(self, app_index: int) -> bool:
        """Request-boundary gate: no in-flight requests for the tenant."""
        tenant = self._tenant_of_app.get(app_index)
        if tenant is None:
            return True
        return self.frontend._tenant_inflight.get(tenant, 0) == 0

    def _run_placement(self, now: float, initial: bool = False) -> None:
        cards = self._cards
        if not cards:
            return
        if (
            not initial
            and self._last_migration is not None
            and now - self._last_migration < PLACEMENT_DWELL_S
        ):
            return
        dead = set(self._dead_cards())
        alive = [c for c in cards if c not in dead]
        if not alive:
            return
        loads: Dict[int, float] = {}
        snapshot = self._admitted_snapshot
        for name, stats, app_index, _, _ in self._tenants:
            admitted = stats.admitted
            loads[app_index] = float(admitted - snapshot[name])
            snapshot[name] = admitted
        plan = plan_placement(self.system, loads, alive)
        if not plan.migrations:
            return
        # A fresh plan supersedes any moves still waiting on a boundary.
        self._pending_migration.clear()
        budget = (
            len(plan.migrations) if initial else MAX_MIGRATIONS_PER_UPDATE
        )
        # plan.migrations already orders evacuations (urgent) first.
        charged = 0
        for app_index, old, new in plan.migrations:
            urgent = old in dead
            if not urgent:
                if charged >= budget:
                    continue
                charged += 1
            if initial or self._migratable(app_index):
                self._apply_migration(now, app_index, old, new, urgent)
            else:
                self._pending_migration[app_index] = (old, new, urgent)

    def _apply_migration(
        self, now: float, app_index: int, old: str, new: str, urgent: bool
    ) -> None:
        self.system.migrate_app(app_index, new)
        self._last_migration = now
        tenant = self._tenant_of_app.get(app_index, f"app{app_index}")
        self._note(
            now, "migration",
            f"{tenant}: {old} -> {new}"
            + (" (home card decommissioned)" if urgent else ""),
            tenant=tenant, app=app_index,
            **{"from": old, "to": new},
        )

    def on_request_boundary(self, tenant: str) -> None:
        """The frontend's completion path calls this after a tenant's
        in-flight count drops; a deferred migration applies at the
        tenant's first completion after it was planned. A completion is
        the stream's request boundary — requests already dispatched
        keep draining (their remaining legs re-route to the new card
        exactly like the breaker plane's alternate routing does), so a
        continuously backlogged tenant still migrates instead of being
        pinned to its card by its own backlog."""
        if not self._pending_migration:
            return
        app_index = self.frontend._app_index.get(tenant)
        if app_index is None or app_index not in self._pending_migration:
            return
        old, new, urgent = self._pending_migration.pop(app_index)
        if new in set(self._dead_cards()):
            return  # stale: the target died; the next pass re-plans
        if self.system.card_of_app(app_index) != old:
            return  # stale: the app moved some other way meanwhile
        self._apply_migration(self.frontend.sim.now, app_index, old, new,
                              urgent)
