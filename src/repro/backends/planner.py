"""Per-leg routing: one admission walk over two rankings.

A ``DMXSystem`` routes every DRX-placement motion leg through one
*router*, which ranks the leg's dispatch targets and hands the ranking
to :func:`admission_walk`: the first target whose failure domain is not
decommissioned and whose breaker admits traffic wins. An open breaker
removes a target **before** any deadline is burned, so a tripped DRX
card costs one dictionary lookup, not a 100 ms timeout. The
:class:`FixedRanking` is the static route (home unit, sibling units,
CPU); the :class:`LegPlanner` prices the leg on every *eligible*
candidate backend (chain shape, payload size, transform kind and live
queue depths feed the estimates) and walks the bids cheapest first.

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
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..core.chain import MotionStage
from ..core.placement import Mode
from .base import (
    BACKEND_CPU,
    BACKEND_DRX,
    BACKEND_DSA,
    BACKEND_KINDS,
    BACKEND_XDMA,
    CostEstimate,
    CPUBackend,
    DRXBackend,
    LegSpec,
    PricedLeg,
    PriceMemo,
    RestructureBackend,
)
from .dsa import DSABackend, DSAConfig
from .xdma import XDMABackend, XDMAConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.system import DMXSystem, _RequestState
    from ..resilience.control import ControlPlane
    from ..resilience.recovery import DomainManager
    from ..telemetry import ActiveSpan

__all__ = [
    "PlannerConfig", "PlanDecision", "LegPlanner", "FixedRanking",
    "admission_walk", "DECOMMISSIONED", "BREAKER_OPEN",
]

#: Why :func:`admission_walk` passed over a target.
DECOMMISSIONED = "decommissioned"
BREAKER_OPEN = "breaker-open"


def _fmt_s(seconds: float) -> str:
    return f"{seconds * 1e6:.2f}us"


def admission_walk(
    targets: Iterable[str],
    domains: Optional["DomainManager"],
    control: Optional["ControlPlane"],
) -> Tuple[Optional[int], bool, List[Tuple[int, str]]]:
    """Walk ranked dispatch ``targets`` and return the first admitted.

    A target whose failure domain is decommissioned (``domains.is_down``)
    is passed over without consulting its breaker; otherwise its breaker
    is asked (``control.admit``). An empty target is ungated. Returns
    ``(index, probe, passed)``: the first admitted index (None when
    every target was passed over), that target's breaker probe flag, and
    ``(index, DECOMMISSIONED | BREAKER_OPEN)`` for each target passed
    over, in ranking order.
    """
    passed: List[Tuple[int, str]] = []
    for index, target in enumerate(targets):
        if target:
            if domains is not None and domains.is_down(target):
                passed.append((index, DECOMMISSIONED))
                continue
            if control is not None:
                decision = control.admit(target)
                if not decision.allow:
                    passed.append((index, BREAKER_OPEN))
                    continue
                return index, decision.probe, passed
        return index, False, passed
    return None, False, passed


def _record_force_cpu(
    system: "DMXSystem", leg: LegSpec, state: "_RequestState",
    mspan: "ActiveSpan",
) -> None:
    """Book the brownout FORCE_CPU tier on one leg: the request counts
    as rerouted, the motion span carries ``forced_cpu`` and a
    ``brownout_force_cpu`` instant names the home unit."""
    state.rerouted = True
    mspan.attrs["forced_cpu"] = True
    system.telemetry.instant(
        "brownout_force_cpu", "brownout", actor=leg.drx.name,
        request_id=state.request_id,
    )


@dataclass(frozen=True)
class PlannerConfig:
    """Arms the per-leg planner on a :class:`DMXSystem`.

    ``candidates`` is the backend pool the planner may pick from; the
    CPU backend is always constructed as the unconditional fallback even
    when it is not a candidate. Restricting candidates to
    ``("drx", "cpu")`` reproduces the static route (:class:`FixedRanking`)
    byte-for-byte only while every leg's home DRX unit admits traffic
    (the golden-identity property the benchmark suite pins): the
    planner's one DRX candidate is the home unit, so where the static
    route moves a leg off a decommissioned or breaker-open home onto a
    sibling unit, the planner sends it to the host CPU.
    """

    candidates: Tuple[str, ...] = BACKEND_KINDS
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
        if not self.queue_weight >= 0:
            raise ValueError("queue_weight must be non-negative (not NaN)")


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


class LegPlanner:
    """The priced ranking: scores every eligible backend for a leg and
    picks the cheapest admitted one."""

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
        self.cpu = self.backends[BACKEND_CPU]
        #: The legs this system plans, each with its per-backend
        #: contention-free price (also read by the tier cost model).
        self.prices = PriceMemo(system)
        #: Per-backend leg attribution (``DMXSystem.backend_stats``).
        self.stats: Dict[str, Dict[str, int]] = {
            kind: dict.fromkeys(
                ("planned", "executed", "rerouted", "fallen_back"), 0
            )
            for kind in self.kinds()
        }

    def _build(self, kind: str) -> RestructureBackend:
        w = self.config.queue_weight
        if kind == BACKEND_DRX:
            return DRXBackend(self.system, w)
        if kind == BACKEND_CPU:
            return CPUBackend(self.system, w)
        if kind == BACKEND_DSA:
            return DSABackend(self.system, DSAConfig(), w)
        if kind == BACKEND_XDMA:
            return XDMABackend(self.system, XDMAConfig(), w)
        raise ValueError(f"unknown backend kind {kind!r}")

    def kinds(self) -> Tuple[str, ...]:
        """Constructed backend kinds, in evaluation order."""
        return tuple(k for k in BACKEND_KINDS if k in self.backends)

    def backend(self, kind: str) -> RestructureBackend:
        return self.backends[kind]

    def route(
        self, app_index: int, src: str, dst: str, stage: MotionStage,
        count: int, state: "_RequestState", mspan: "ActiveSpan",
        force_cpu: bool,
    ) -> Tuple[RestructureBackend, LegSpec, bool]:
        """Plan one motion leg; returns ``(backend, leg, probe)`` and
        books the decision on the stats, ``mspan`` and ``state``.
        ``force_cpu`` (brownout FORCE_CPU) only *constrains* the plan to
        backends no pricier than the CPU: see :meth:`plan`.
        """
        priced = self.prices.leg(app_index, src, dst, stage, count)
        leg = priced.leg
        if force_cpu:
            _record_force_cpu(self.system, leg, state, mspan)
        decision = self.plan(priced, cpu_ceiling=force_cpu)
        self._record(decision, leg, state, mspan)
        return decision.backend, leg, decision.probe

    def _record(
        self, decision: PlanDecision, leg: LegSpec, state: "_RequestState",
        mspan: "ActiveSpan",
    ) -> None:
        """Book one planning decision: stats, span attrs, reroute notes."""
        system = self.system
        kind = decision.kind
        self.stats[kind]["planned"] += 1
        if decision.skipped:
            # A cheaper backend was breaker-denied: the leg was steered
            # around it proactively — the planner's reroute.
            state.rerouted = True
            to = decision.backend.target(leg) or kind
            for skipped_kind, skipped_target in decision.skipped:
                self.stats[skipped_kind]["rerouted"] += 1
                if system.control is not None:
                    system.control.note_reroute(
                        skipped_target, to, state.request_id
                    )
        state.leg_backends.append(kind)
        state.leg_reasons.append(decision.reason)
        telemetry = system.telemetry
        mspan.attrs["backend"] = kind
        mspan.attrs["planner_reason"] = decision.reason
        if decision.skipped:
            mspan.attrs["rerouted_to"] = kind
        telemetry.counter("planner_decisions", backend=kind).inc()
        if decision.estimate is not None:
            telemetry.sample_gauge(
                "planner_queue_depth", float(decision.estimate.depth),
                backend=kind,
            )

    def executed(self, kind: str, outcome: str) -> None:
        """Book where a ``kind`` leg finished: ``outcome`` is
        ``"done"``, or ``"fell_back"``/``"rescued"`` when the CPU
        backend finished it."""
        if outcome == "fell_back":
            self.stats[kind]["fallen_back"] += 1
        finisher = kind if outcome == "done" else BACKEND_CPU
        self.stats[finisher]["executed"] += 1

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
        domains = self.system.domains
        ceiling = priced.estimate(self.cpu).total_s if cpu_ceiling else None
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
        targets = [entry[3].target(leg) for entry in scored]
        index, probe, passed = admission_walk(
            targets, domains, self.system.control
        )
        skipped: List[Tuple[str, str]] = []
        for denied, why in passed:
            kind = scored[denied][2]
            skipped.append((kind, targets[denied]))
            notes.append(f"{kind}:{why}")
        if index is None:
            # Every candidate ineligible, decommissioned, over the
            # ceiling, or breaker-denied: CPU catches it.
            kind, backend, est = BACKEND_CPU, self.cpu, None
            reason = "no-eligible-backend"
        else:
            _total, _order, kind, backend, est = scored[index]
            reason = ranking
        if notes:
            reason += " [" + ",".join(notes) + "]"
        return PlanDecision(
            kind=kind, backend=backend, reason=reason, probe=probe,
            estimate=est, skipped=skipped,
        )


#: The motion-span attr a passed-over home unit leaves, per reason.
_HOME_PASSED = {DECOMMISSIONED: "domain_down", BREAKER_OPEN: "breaker_open"}
#: Placements whose DRX units can stand in for each other.
_FUNGIBLE = (Mode.STANDALONE, Mode.PCIE_INTEGRATED)


class FixedRanking:
    """The static route: a fixed ranking of a leg's dispatch targets.

    The ranking is the leg's home DRX unit, then — in STANDALONE and
    PCIE_INTEGRATED, whose units are fungible (the fabric routes the
    extra hops and charges for them) — every other unit in name order,
    then the host CPU. A leg moved off its home never burns the
    per-request DRX deadline. With neither a control plane nor a crash
    plan armed a leg runs on its home unit without a walk; FORCE_CPU
    sends it to the CPU without a walk.
    """

    def __init__(self, system: "DMXSystem"):
        self.system = system
        self.cpu = CPUBackend(system)
        self._drx = DRXBackend(system)
        self.backends: Dict[str, RestructureBackend] = {
            BACKEND_DRX: self._drx, BACKEND_CPU: self.cpu,
        }
        #: The legs this system routes (also read by the tier cost model).
        self.prices = PriceMemo(system)
        self._armed = system.control is not None or system.domains is not None
        #: home unit -> the targets its legs walk, the CPU last as "".
        self._rankings: Dict[str, Tuple[str, ...]] = {}

    def _ranking(self, home: str) -> Tuple[str, ...]:
        ranking = self._rankings.get(home)
        if ranking is None:
            siblings: List[str] = []
            if self.system.config.mode in _FUNGIBLE:
                siblings = sorted(self.system.drx_devices)
                siblings.remove(home)
            ranking = self._rankings[home] = (home, *siblings, "")
        return ranking

    def route(
        self, app_index: int, src: str, dst: str, stage: MotionStage,
        count: int, state: "_RequestState", mspan: "ActiveSpan",
        force_cpu: bool,
    ) -> Tuple[RestructureBackend, LegSpec, bool]:
        """Route one motion leg; returns ``(backend, leg, probe)``.

        A home passed over leaves ``domain_down`` or ``breaker_open`` on
        the motion span ``mspan``. A leg moved off its home marks the
        request rerouted, leaves ``rerouted_to`` (the unit, or
        ``"cpu"``) and notes the reroute on an armed control plane.
        """
        system = self.system
        leg = self.prices.leg(app_index, src, dst, stage, count).leg
        if force_cpu:
            _record_force_cpu(system, leg, state, mspan)
            return self.cpu, leg, False
        if not self._armed:
            return self._drx, leg, False
        home = leg.drx.name
        targets = self._ranking(home)
        control = system.control
        index, probe, passed = admission_walk(
            targets, system.domains, control
        )
        if not passed:
            return self._drx, leg, probe
        state.rerouted = True
        to = targets[index]
        if to:
            backend = self._drx
            staging = to if leg.mode is Mode.STANDALONE else to[len("drx."):]
            leg = self.prices.leg(
                app_index, src, dst, stage, count,
                placement=(system.drx_devices[to], staging),
            ).leg
        else:
            backend, to = self.cpu, "cpu"
        mspan.attrs[_HOME_PASSED[passed[0][1]]] = True
        mspan.attrs["rerouted_to"] = to
        if control is not None:
            control.note_reroute(home, to, state.request_id)
        return backend, leg, probe

    def executed(self, kind: str, outcome: str) -> None:
        """Nothing to book: the static route keeps no leg stats."""
