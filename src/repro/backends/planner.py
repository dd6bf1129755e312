"""Cost-based per-leg backend selection.

The :class:`LegPlanner` sits at ``DMXSystem`` motion time and turns the
static "DRX with CPU fallback" routing into a live scheduling decision:
every restructuring leg is priced on every *eligible* candidate backend
(chain shape, payload size, transform kind, and current queue depths all
feed the estimates), the bids are ranked, and the cheapest backend whose
resilience breaker admits traffic wins. Open breakers remove a backend
from the candidate set **before** any deadline is burned — the planner
consults :meth:`ControlPlane.admit` on the ranked order, so a tripped
DRX card costs one dictionary lookup, not a 100 ms timeout.

Cost: each candidate's contention-free price of a leg is computed once
per distinct leg and kept in the planner's :class:`PriceMemo`; a
:meth:`LegPlanner.plan` call reads only live state — queue depths,
decommissioned domains and breaker admission.

Determinism: estimates are pure functions of the leg and current DES
state, candidates are evaluated in the fixed :data:`BACKEND_KINDS`
order, and ties break on declaration order — two equal-seed runs make
byte-identical decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .base import (
    BACKEND_CPU,
    BACKEND_DRX,
    BACKEND_DSA,
    BACKEND_KINDS,
    BACKEND_XDMA,
    CostEstimate,
    CPUBackend,
    DRXBackend,
    PricedLeg,
    PriceMemo,
    RestructureBackend,
)
from .dsa import DSABackend, DSAConfig
from .xdma import XDMABackend, XDMAConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.system import DMXSystem

__all__ = ["PlannerConfig", "PlanDecision", "LegPlanner"]


def _fmt_s(seconds: float) -> str:
    return f"{seconds * 1e6:.2f}us"


@dataclass(frozen=True)
class PlannerConfig:
    """Arms the per-leg planner on a :class:`DMXSystem`.

    ``candidates`` is the backend pool the planner may pick from; the
    CPU backend is always constructed as the unconditional fallback even
    when it is not a candidate. Restricting candidates to
    ``("drx", "cpu")`` reproduces the pre-planner engine byte-for-byte
    (the golden-identity property the benchmark suite pins).
    """

    candidates: Tuple[str, ...] = BACKEND_KINDS
    dsa: DSAConfig = field(default_factory=DSAConfig)
    xdma: XDMAConfig = field(default_factory=XDMAConfig)
    #: Scales how strongly live queue depth repels the planner.
    queue_weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError("candidates must not be empty")
        for kind in self.candidates:
            if kind not in BACKEND_KINDS:
                raise ValueError(
                    f"unknown backend kind {kind!r}; "
                    f"expected one of {BACKEND_KINDS}"
                )
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("candidates must be unique")
        if self.queue_weight < 0:
            raise ValueError("queue_weight must be non-negative")


@dataclass
class PlanDecision:
    """One leg's routing outcome, recorded onto the request record."""

    kind: str
    backend: RestructureBackend
    reason: str
    probe: bool = False
    estimate: Optional[CostEstimate] = None
    #: Backends that ranked cheaper but were breaker-denied: the
    #: reroutes the resilience plane gets notified about.
    skipped: List[Tuple[str, str]] = field(default_factory=list)
    #: True when the candidate set was restricted by the brownout CPU
    #: cost ceiling (the planner-aware FORCE_CPU tier).
    constrained: bool = False


class LegPlanner:
    """Scores every eligible backend for a leg; picks the cheapest."""

    def __init__(self, system: "DMXSystem", config: PlannerConfig):
        self.system = system
        self.config = config
        self.backends: Dict[str, RestructureBackend] = {}
        for kind in BACKEND_KINDS:
            if kind in config.candidates:
                self.backends[kind] = self._build(kind)
        # The CPU path is the unconditional fallback: always present.
        if BACKEND_CPU not in self.backends:
            self.backends[BACKEND_CPU] = CPUBackend(
                system, config.queue_weight
            )
        #: The legs this system plans, each with its per-backend
        #: contention-free price (also read by the tier cost model).
        self.prices = PriceMemo(system)

    def _build(self, kind: str) -> RestructureBackend:
        w = self.config.queue_weight
        if kind == BACKEND_DRX:
            return DRXBackend(self.system, w)
        if kind == BACKEND_CPU:
            return CPUBackend(self.system, w)
        if kind == BACKEND_DSA:
            return DSABackend(self.system, self.config.dsa, w)
        if kind == BACKEND_XDMA:
            return XDMABackend(self.system, self.config.xdma, w)
        raise ValueError(f"unknown backend kind {kind!r}")

    def kinds(self) -> Tuple[str, ...]:
        """Constructed backend kinds, in evaluation order."""
        return tuple(k for k in BACKEND_KINDS if k in self.backends)

    def backend(self, kind: str) -> RestructureBackend:
        return self.backends[kind]

    def forced_cpu(self, reason: str = "brownout") -> PlanDecision:
        """A decision the brownout/force-cpu control path dictates."""
        return PlanDecision(
            kind=BACKEND_CPU,
            backend=self.backends[BACKEND_CPU],
            reason=f"forced-cpu({reason})",
        )

    def plan(
        self, priced: PricedLeg, cpu_ceiling: bool = False
    ) -> PlanDecision:
        """Price ``priced.leg`` on every candidate; return the cheapest
        admitted.

        Pure with respect to simulated time: estimates read live queue
        depths but never advance the clock or touch RNG state. Each bid
        equals ``backend.estimate(priced.leg)``; the contention-free half
        comes from ``priced``'s memo.

        A backend whose dispatch target sits on a *decommissioned*
        failure domain (crashed and detected, breaker DEAD) is removed
        from the candidate set before it is even priced — decommission
        means no new legs are planned onto the domain, full stop.

        ``cpu_ceiling=True`` is the planner-aware brownout FORCE_CPU
        tier: candidates pricier than the CPU estimate are dropped, so
        the tier means "cheapest *surviving* backend no worse than CPU"
        instead of blindly pessimizing legs whose accelerator path is
        cheaper than host restructuring.
        """
        leg = priced.leg
        domains = getattr(self.system, "domains", None)
        ceiling = (
            priced.estimate(self.backends[BACKEND_CPU]).total_s
            if cpu_ceiling
            else None
        )
        scored: List[Tuple[float, int, str, RestructureBackend,
                           CostEstimate]] = []
        notes: List[str] = []
        for index, kind in enumerate(BACKEND_KINDS):
            if kind not in self.config.candidates:
                continue
            backend = self.backends[kind]
            if not backend.eligible(leg):
                notes.append(f"{kind}:ineligible")
                continue
            if domains is not None:
                target = backend.target(leg)
                if target and domains.is_down(target):
                    notes.append(f"{kind}:decommissioned")
                    continue
            est = priced.estimate(backend)
            if ceiling is not None and est.total_s > ceiling:
                notes.append(f"{kind}:over-cpu-ceiling")
                continue
            scored.append((est.total_s, index, kind, backend, est))
        scored.sort(key=lambda entry: (entry[0], entry[1]))
        ranking = " < ".join(
            f"{kind}:{_fmt_s(total)}" for total, _, kind, _b, _e in scored
        )
        if ceiling is not None:
            notes.append(f"cpu-ceiling:{_fmt_s(ceiling)}")
        control = self.system.control
        skipped: List[Tuple[str, str]] = []
        for total, _index, kind, backend, est in scored:
            target = backend.target(leg)
            probe = False
            if target and control is not None:
                decision = control.admit(target)
                if not decision.allow:
                    skipped.append((kind, target))
                    notes.append(f"{kind}:breaker-open")
                    continue
                probe = decision.probe
            reason = ranking
            if notes:
                reason += " [" + ",".join(notes) + "]"
            return PlanDecision(
                kind=kind, backend=backend, reason=reason, probe=probe,
                estimate=est, skipped=skipped, constrained=cpu_ceiling,
            )
        # Every candidate ineligible, decommissioned, over the ceiling,
        # or breaker-denied: CPU catches it.
        reason = "no-eligible-backend"
        if notes:
            reason += " [" + ",".join(notes) + "]"
        return PlanDecision(
            kind=BACKEND_CPU,
            backend=self.backends[BACKEND_CPU],
            reason=reason,
            skipped=skipped,
            constrained=cpu_ceiling,
        )
