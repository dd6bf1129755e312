"""Per-tier cost model: what does each brownout tier buy, and at what
price, *right now*?

The open-loop ladder steps one tier at a time on a threshold; the
closed-loop controller instead asks each tier for a priced bid —
estimated tail-latency **relief** (seconds of windowed tail the tier is
expected to shave) against the **cost** it charges (goodput shed,
formation latency added, host restructuring time and energy paid) — and
picks the *cheapest sufficient* tier: the lowest-cost rung whose relief
covers the current SLO overshoot.

All prices come from the same :class:`~repro.backends.base.CostEstimate`
machinery the per-leg planner ranks on: the DRX/CPU backends are priced
on a representative leg per application chain (the chain's first motion
stage, staged where the placement mode *currently* homes it — live
queue depths and the live placement both feed the bid). A leg's
contention-free half depends only on the chain and its home DRX, so it
is priced once per ``(app, home DRX)`` pair and kept — in the
:class:`~repro.backends.base.PriceMemo` of the system's leg router —
and each bid reads only the live DRX and CPU queue depths.
Estimates are pure functions of DES state: pricing a tier advances no
clock and draws no randomness, so two equal-seed runs bid — and
therefore step — identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

from ..backends.base import BACKEND_DRX, DRXBackend, LegSpec, UnloadedCost
from ..core.chain import MotionStage
from ..resilience.brownout import BrownoutTier

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.system import DMXSystem

__all__ = ["TierBid", "TierCostModel"]


@dataclass(frozen=True)
class TierBid:
    """One tier's priced offer: relief bought vs. cost charged."""

    tier: BrownoutTier
    relief_s: float
    paid_s: float

    def describe(self) -> str:
        return (
            f"{self.tier.name}: relief={self.relief_s * 1e6:.1f}us "
            f"paid={self.paid_s * 1e6:.1f}us"
        )


def _first_motion(system: "DMXSystem", app_index: int):
    """``(stage, src, dst)`` of the chain's first motion stage: the part
    of its representative leg no placement changes."""
    chain = system.chains[app_index]
    for stage_index, stage in enumerate(chain.stages):
        if not isinstance(stage, MotionStage):
            continue
        src = system._accel_names[(app_index, stage_index - 1)]
        dst = system._accel_names[(app_index, stage_index + 1)]
        return stage, src, dst
    raise ValueError(f"chain {chain.name!r} has no motion stage to price")


#: A representative leg with its DRX and CPU contention-free prices.
_PricedLeg = Tuple[LegSpec, UnloadedCost, UnloadedCost]


class TierCostModel:
    """Price the brownout tiers on live backend estimates.

    ``shed_fraction`` (the load share belonging to sheddable tenants)
    and the per-chain queue depths are re-read at every evaluation, so
    bids track the run: a migration that drains a hot card's queue
    immediately lowers FORCE_CPU's relief (there is less queueing left
    to dodge), and the model de-escalates on the next update. A
    migration or scale event only changes which ``(app, home DRX)``
    entry of the price memo a bid reads.
    """

    def __init__(
        self,
        system: "DMXSystem",
        shed_cost_weight: float,
        coalesce_relief_fraction: float,
        coalesce_cost_s: float,
        energy_cost_s_per_j: float,
        max_tier: BrownoutTier,
    ):
        self.system = system
        self.shed_cost_weight = shed_cost_weight
        self.coalesce_relief_fraction = coalesce_relief_fraction
        self.coalesce_cost_s = coalesce_cost_s
        self.energy_cost_s_per_j = energy_cost_s_per_j
        self.max_tier = max_tier
        # Price on the system router's backends and memo (their
        # queue_weight matches what dispatch actually pays, and a leg the
        # router already priced is not priced again); a planner without
        # a DRX candidate still gets a bare DRX backend.
        router = system.router
        self._drx = router.backends.get(BACKEND_DRX) or DRXBackend(system)
        self._cpu = router.cpu
        self._prices = router.prices
        self._motion = [
            _first_motion(system, app_index)
            for app_index in range(len(system.chains))
        ]

    def _priced_leg(self, app_index: int) -> _PricedLeg:
        """The chain's representative leg, staged where the mode homes
        it right now, with its contention-free prices."""
        stage, src, dst = self._motion[app_index]
        priced = self._prices.leg(app_index, src, dst, stage)
        return (
            priced.leg, priced.unloaded(self._drx), priced.unloaded(self._cpu)
        )

    def bids(self, slo_s: float, shed_fraction: float) -> List[TierBid]:
        """Current bids for every actionable tier, in tier order."""
        drx_b, cpu_b = self._drx, self._cpu
        priced = [self._priced_leg(a) for a in range(len(self._motion))]
        n = len(priced)
        # sum() rather than a running +=: from Python 3.12 sum() adds
        # floats with compensation, and bids must match estimate() sums.
        queue_s = sum(
            drx_b.queue_s(drx_b.queue_depth(leg), drx.per_job_s)
            for leg, drx, _ in priced
        ) / n
        drx_service = sum(drx.service_s for _, drx, _ in priced) / n
        cpu_total = sum(
            cpu.service_s
            + cpu_b.queue_s(cpu_b.queue_depth(leg), cpu.per_job_s)
            for leg, _, cpu in priced
        ) / n
        energy_delta = max(
            0.0,
            sum(cpu.energy_j for _, _, cpu in priced) / n
            - sum(drx.energy_j for _, drx, _ in priced) / n,
        )
        bids = [
            # Shedding removes the sheddable tenants' share of the
            # queueing pressure; its price is the goodput destroyed,
            # converted to latency units via the configured weight.
            TierBid(
                tier=BrownoutTier.SHED_LOW,
                relief_s=shed_fraction * queue_s,
                paid_s=self.shed_cost_weight * shed_fraction * slo_s,
            ),
            # Coalescing amortizes the control path (descriptor chains,
            # doorbells, one completion ISR): a configured fraction of
            # the queueing pressure, paid for in formation delay.
            TierBid(
                tier=BrownoutTier.COALESCE,
                relief_s=self.coalesce_relief_fraction * queue_s,
                paid_s=self.coalesce_cost_s,
            ),
            # Host restructuring dodges the DRX queue entirely, but the
            # service-time gap is *signed*: when the CPU path is slower
            # than DRX service (the usual case), forcing it is net harm
            # unless the dodged queue exceeds the slowdown. An unsigned
            # gap here once made FORCE_CPU look mildly helpful under any
            # backlog, and the controller pinned every request onto the
            # slow host path.
            TierBid(
                tier=BrownoutTier.FORCE_CPU,
                relief_s=queue_s + (drx_service - cpu_total),
                paid_s=max(0.0, cpu_total - drx_service)
                + self.energy_cost_s_per_j * energy_delta,
            ),
        ]
        return [b for b in bids if b.tier <= self.max_tier]

    def choose(
        self, tail_s: float, slo_s: float, target_fraction: float,
        shed_fraction: float,
    ) -> "tuple[BrownoutTier, List[TierBid]]":
        """The cheapest tier whose relief covers the overshoot.

        ``needed = tail - target_fraction * slo``; non-positive means
        the system is inside its headroom target and NORMAL suffices.
        When no tier's relief covers the overshoot, the biggest-relief
        tier wins (cheapest among ties) — degrade as far as the ladder
        can usefully go rather than giving up.
        """
        bids = self.bids(slo_s, shed_fraction)
        needed = tail_s - target_fraction * slo_s
        if needed <= 0.0:
            return BrownoutTier.NORMAL, bids
        sufficient = [b for b in bids if b.relief_s >= needed]
        if sufficient:
            best = min(sufficient, key=lambda b: (b.paid_s, int(b.tier)))
            return best.tier, bids
        best = max(bids, key=lambda b: (b.relief_s, -b.paid_s, -int(b.tier)))
        return best.tier, bids
