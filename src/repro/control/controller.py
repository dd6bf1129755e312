"""The unified closed-loop controller.

One :class:`ClosedLoopController` runs on the sim clock inside a
:class:`~repro.serve.frontend.ServingFrontend` and closes the loop over
every actuator the serving and resilience planes expose, from one
sensing substrate — windowed per-tenant tail latency vs. the SLO, plus
the live :class:`~repro.resilience.health.HealthMonitor` scores:

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

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from ..resilience.brownout import BrownoutTier
from ..sim.tracing import exact_percentile
from .cost import TierBid, TierCostModel
from .placement import plan_placement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serve.frontend import ServingFrontend

__all__ = ["ControllerConfig", "ClosedLoopController"]


@dataclass(frozen=True)
class ControllerConfig:
    """Arms the closed-loop controller on a serving frontend.

    The four actuators arm independently: ``drive_weights`` /
    ``drive_tiers`` / ``drive_placement`` flags and a non-zero
    ``standby_cards`` pool for the capacity autoscaler. ``drive_tiers``
    requires the frontend's brownout ladder (the controller picks the
    tier; the ladder's machinery applies it) and a mode with DRX units
    to price (not ALL_CPU or MULTI_AXL); ``standby_cards`` requires
    the fronted system's resilience control plane (commission /
    decommission ride the breaker revive / mark-dead machinery).
    """

    update_period_s: float = 2e-3
    #: Per-tenant (and global) sliding latency window.
    window: int = 32
    min_samples: int = 4
    quantile: float = 0.99
    #: Steer windowed tails toward ``target_fraction * slo``.
    target_fraction: float = 0.85

    # (a) WRR weight driver
    drive_weights: bool = True
    min_weight: int = 1
    max_weight: int = 8
    weight_dwell_s: float = 4e-3

    # (b) cost-model tier selection
    drive_tiers: bool = True
    shed_cost_weight: float = 2.0
    coalesce_relief_fraction: float = 0.35
    coalesce_cost_s: float = 1e-3
    energy_cost_s_per_j: float = 0.0
    #: De-escalate only once the windowed tail is back under this
    #: fraction of the SLO — the dual-threshold band the open-loop
    #: ladder has; without it the tier limit-cycles at the dwell period
    #: (shed drains the queue, the tail dips, NORMAL refills it).
    deescalate_fraction: float = 0.7

    # (c) DRX capacity autoscaler (inert at standby_cards=0)
    standby_cards: int = 0
    scale_up_at: float = 0.85
    scale_down_at: float = 0.35
    scale_dwell_s: float = 8e-3

    # (d) placement optimizer
    drive_placement: bool = True
    placement_dwell_s: float = 6e-3
    max_migrations_per_update: int = 1

    def __post_init__(self) -> None:
        if not self.update_period_s > 0:
            raise ValueError("update_period_s must be positive (not NaN)")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 1 <= self.min_samples <= self.window:
            raise ValueError("min_samples must be in [1, window]")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if not 0.0 < self.target_fraction <= 1.0:
            raise ValueError("target_fraction must be in (0, 1]")
        if not 1 <= self.min_weight <= self.max_weight:
            raise ValueError("need 1 <= min_weight <= max_weight")
        if self.standby_cards < 0:
            raise ValueError("standby_cards must be >= 0")
        if not self.scale_down_at < self.scale_up_at:
            raise ValueError("scale_down_at must be < scale_up_at")
        if not 0.0 < self.deescalate_fraction <= self.target_fraction:
            raise ValueError(
                "deescalate_fraction must be in (0, target_fraction]"
            )
        if self.max_migrations_per_update < 0:
            raise ValueError("max_migrations_per_update must be >= 0")
        for name in ("weight_dwell_s", "scale_dwell_s",
                     "placement_dwell_s", "coalesce_cost_s",
                     "shed_cost_weight", "coalesce_relief_fraction",
                     "energy_cost_s_per_j"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0 (not NaN)")


class ClosedLoopController:
    """Sense windowed tails + health; drive weights, tier, capacity,
    and placement. Owned and clocked by a :class:`ServingFrontend`."""

    def __init__(self, frontend: "ServingFrontend",
                 config: ControllerConfig):
        if frontend.config.slo_s is None:
            raise ValueError("the closed-loop controller requires slo_s")
        if config.drive_tiers and frontend._brownout is None:
            raise ValueError(
                "drive_tiers requires the brownout ladder "
                "(FrontendConfig.brownout)"
            )
        mode = frontend.system.config.mode
        if config.drive_tiers and not mode.uses_drx:
            raise ValueError(
                f"drive_tiers prices DRX legs; mode {mode.value!r} has no "
                "DRX (set drive_tiers=False)"
            )
        self.frontend = frontend
        self.system = frontend.system
        self.config = config
        self.slo_s = frontend.config.slo_s
        self.telemetry = frontend.telemetry
        self._tenant_window: Dict[str, Deque[float]] = {
            t.name: deque(maxlen=config.window) for t in frontend.tenants
        }
        self._global_window: Deque[float] = deque(maxlen=config.window)
        self._base_weight: Dict[str, int] = {
            t.name: t.weight for t in frontend.tenants
        }
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
        cards = self.system.standalone_cards()
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
        self._tier_model: Optional[TierCostModel] = (
            TierCostModel(
                self.system,
                shed_cost_weight=config.shed_cost_weight,
                coalesce_relief_fraction=config.coalesce_relief_fraction,
                coalesce_cost_s=config.coalesce_cost_s,
                energy_cost_s_per_j=config.energy_cost_s_per_j,
                max_tier=frontend._brownout.config.max_tier
                if frontend._brownout is not None
                else BrownoutTier.FORCE_CPU,
            )
            if config.drive_tiers
            else None
        )

    # -- sensing ---------------------------------------------------------------

    def observe(self, tenant: str, latency_s: float) -> None:
        """Fold one completed request's client latency into the windows."""
        self._tenant_window[tenant].append(latency_s)
        self._global_window.append(latency_s)

    def _tail(self, window: Deque[float]) -> Optional[float]:
        if len(window) < self.config.min_samples:
            return None
        return exact_percentile(sorted(window), self.config.quantile)

    def tenant_tail(self, tenant: str) -> Optional[float]:
        return self._tail(self._tenant_window[tenant])

    def global_tail(self) -> Optional[float]:
        return self._tail(self._global_window)

    def _shed_fraction(self) -> float:
        """Load share of tenants the SHED_LOW tier would shed."""
        brownout = self.frontend._brownout
        if brownout is None:
            return 0.0
        ceiling = brownout.config.shed_max_priority
        total = sheddable = 0
        for spec in self.frontend.tenants:
            admitted = self.frontend._stats[spec.name].admitted
            total += admitted
            if spec.priority <= ceiling:
                sheddable += admitted
        return sheddable / total if total else 0.0

    # -- bookkeeping -----------------------------------------------------------

    def _note(self, now: float, kind: str, detail: str, **attrs) -> None:
        self.actions.append((now, kind, detail))
        if not self.telemetry.enabled:
            return
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
        if self._pool or self.config.drive_placement:
            self._run_placement(now, initial=True)
        if (
            self.telemetry.enabled
            and self.config.drive_tiers
            and self.frontend._brownout is not None
        ):
            self.telemetry.metrics.gauge("brownout_tier").sample(
                now, int(self.frontend._brownout.tier)
            )

    def _in_service_count(self) -> int:
        dead = set(self._dead_cards())
        return sum(
            1 for c in self.system.standalone_cards() if c not in dead
        )

    # -- the update ------------------------------------------------------------

    def update(self, now: float) -> None:
        """One control period: sense, then drive each armed actuator."""
        if self.config.drive_weights:
            self._drive_weights(now)
        tail = self.global_tail()
        if self._tier_model is not None and tail is not None:
            self._drive_tier(now, tail)
        if self._pool and tail is not None:
            self._drive_capacity(now, tail)
        if self.config.drive_placement:
            self._run_placement(now)

    # (a) -- WRR weights -------------------------------------------------------

    def _drive_weights(self, now: float) -> None:
        cfg = self.config
        standalone = bool(self.system.standalone_cards())
        for spec in self.frontend.tenants:
            name = spec.name
            tail = self.tenant_tail(name)
            if tail is None:
                continue
            last = self._last_weight_change[name]
            if last is not None and now - last < cfg.weight_dwell_s:
                continue
            pressure = tail / (cfg.target_fraction * self.slo_s)
            pressure = min(2.0, max(0.5, pressure))
            health = self._card_health(
                self.system.card_of_app(self.frontend._app_index[name])
                if standalone
                else name
            )
            raw = self._base_weight[name] * pressure * health
            weight = max(cfg.min_weight,
                         min(cfg.max_weight, int(round(raw))))
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
        chosen, bids = self._tier_model.choose(
            tail, self.slo_s, self.config.target_fraction,
            self._shed_fraction(),
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
        old, new = change
        if self.telemetry.enabled:
            self.telemetry.metrics.gauge("brownout_tier").sample(
                now, int(new)
            )
        self._note(
            now, "tier",
            f"tier {old.name} -> {new.name} "
            f"(p99 {tail * 1e3:.2f}ms vs SLO {self.slo_s * 1e3:.2f}ms; "
            + "; ".join(b.describe() for b in bids) + ")",
            **{"from": old.name, "to": new.name},
        )

    # (c) -- capacity ----------------------------------------------------------

    def _drive_capacity(self, now: float, tail: float) -> None:
        cfg = self.config
        if (
            self._last_scale is not None
            and now - self._last_scale < cfg.scale_dwell_s
        ):
            return
        if tail >= cfg.scale_up_at * self.slo_s and self._parked:
            card = self._parked.pop(0)
            self.system.control.revive(card, cooldown_s=0.0)
            self._last_scale = now
            self._note(
                now, "scale_up",
                f"commissioned {card} "
                f"(p99 {tail * 1e3:.2f}ms >= "
                f"{cfg.scale_up_at:.2f}x SLO)",
                card=card, in_service=self._in_service_count(),
            )
        elif tail <= cfg.scale_down_at * self.slo_s:
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
                f"{cfg.scale_down_at:.2f}x SLO)",
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
        cfg = self.config
        cards = self.system.standalone_cards()
        if not cards:
            return
        if (
            not initial
            and self._last_migration is not None
            and now - self._last_migration < cfg.placement_dwell_s
        ):
            return
        dead = set(self._dead_cards())
        alive = [c for c in cards if c not in dead]
        if not alive:
            return
        loads: Dict[int, float] = {}
        for app, tenant in self._tenant_of_app.items():
            admitted = self.frontend._stats[tenant].admitted
            loads[app] = float(admitted - self._admitted_snapshot[tenant])
            self._admitted_snapshot[tenant] = admitted
        plan = plan_placement(self.system, loads, alive)
        if not plan.migrations:
            return
        # A fresh plan supersedes any moves still waiting on a boundary.
        self._pending_migration.clear()
        budget = (
            len(plan.migrations)
            if initial
            else cfg.max_migrations_per_update
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
