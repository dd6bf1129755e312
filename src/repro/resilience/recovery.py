"""Permanent-failure execution: detect → decommission → drain → rescue
→ re-admit.

:class:`DomainManager` is the runtime half of a
:class:`~repro.faults.domains.CrashPlan`. Armed on a
:class:`~repro.core.system.DMXSystem` (the ``domains=`` argument), it:

* **schedules** each crash (and optional revival) as a DES callback and
  broadcasts it through a per-target crash :class:`~repro.sim.Event`
  that every in-flight leg on that target races;
* **drains** — the leg race loses to the crash event, the leg's child
  process is cancelled via the engine's interrupt machinery (its
  ``finally`` blocks release every held slot), and the typed
  :class:`~repro.faults.domains.DomainCrashed` surfaces in the motion
  body;
* **detects** — each observed crash failure escalates a per-target
  consecutive-failure count; at ``detect_after_failures`` the target is
  decommissioned: its breaker is promoted to the DEAD state, the
  placement tables and the :class:`~repro.backends.planner.LegPlanner`
  candidate set stop offering it, and a ``domain_dead`` instant records
  the detection latency;
* **rescues** — the drained leg is resubmitted *exactly once* on the
  unconditionally-surviving CPU backend with its already-burned latency
  carried (re-billed to the recovery phase, like the deadline-fallback
  path), or failed with a typed
  :class:`~repro.faults.domains.RescueAbandoned` when past the plan's
  rescue deadline;
* **re-admits** — a revival flips the breaker DEAD → OPEN with a zero
  cooldown, so traffic returns through the normal half-open probing.

Everything is deterministic: the crash schedule is data, the broadcast
event is ordinary DES machinery, and no randomness is drawn. A plan
with no crashes arms nothing at all — the system constructor skips the
manager entirely, keeping crash-free runs byte-identical to unarmed
ones.

:func:`run_recovery_scenario` is the experiment driver on top: one
serving run with a mid-run kill (and optional revival), windowed
goodput queries for the before/after/revived comparison, and the
conservation invariant checker run automatically on the artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Optional, Tuple

from ..core.chain import AppChain
from ..core.placement import Mode
from ..core.system import DMXSystem, RequestRecord
from ..faults.domains import CrashPlan, DomainCrash
from ..serve.batching import BatchingConfig
from ..serve.frontend import FrontendConfig, ShedPolicy
from ..serve.slo import ServeResult
from ..serve.sweep import (
    build_chains,
    check_serving_fields,
    serve_load,
    system_config,
    write_run_artifact,
)
from .control import ResilienceConfig

__all__ = [
    "DomainManager",
    "RecoveryScenarioConfig",
    "RecoveryScenarioResult",
    "run_recovery_scenario",
]


class DomainManager:
    """Executes one :class:`CrashPlan` against a live ``DMXSystem``.

    Constructed only when the plan has crashes (an empty plan arms
    nothing); schedules every crash/revival at construction time, so it
    must be built before the simulator runs.
    """

    def __init__(self, system: "DMXSystem", plan: CrashPlan):
        self.system = system
        self.sim = system.sim
        self.telemetry = system.telemetry
        self.plan = plan
        #: target -> crash instant (permanent record, survives revival).
        self.crashed_at: Dict[str, float] = {}
        #: target -> decommission (detection) instant.
        self.dead_at: Dict[str, float] = {}
        #: target -> revival instant.
        self.revived_at: Dict[str, float] = {}
        self._down: set = set()           # ground truth: currently crashed
        self._decommissioned: set = set()  # detected: routing excludes these
        self._events: Dict[str, object] = {}  # per-target crash broadcast
        self._failures: Dict[str, int] = {}
        self.drained = 0        # in-flight legs cancelled at crash time
        self.failed_fast = 0    # dispatches refused on an undetected corpse
        self.rescued = 0        # members resubmitted on a surviving backend
        self.rescues_abandoned = 0
        for crash in plan.crashes:
            self._events[crash.target] = self.sim.event()
            self.sim.schedule(
                crash.at_s - self.sim.now,
                lambda c=crash: self._crash(c),
            )
            if crash.revive_at_s is not None:
                self.sim.schedule(
                    crash.revive_at_s - self.sim.now,
                    lambda c=crash: self._revive(c),
                )

    # -- the crash/revival schedule ------------------------------------------

    def _crash(self, crash: DomainCrash) -> None:
        target = crash.target
        self.crashed_at[target] = self.sim.now
        self._down.add(target)
        # The broadcast: every leg racing this event is drained at this
        # instant; legs dispatched afterwards fail fast on it.
        self._events[target].succeed()
        self.telemetry.instant(
            "domain_crashed", "domain", actor=target,
            revive_at_s=crash.revive_at_s,
        )

    def _revive(self, crash: DomainCrash) -> None:
        target = crash.target
        self._down.discard(target)
        self._decommissioned.discard(target)
        self._events.pop(target, None)
        self._failures.pop(target, None)
        self.revived_at[target] = self.sim.now
        self.telemetry.instant("domain_revived", "domain", actor=target)
        control = self.system.control
        if control is not None and target in self.dead_at:
            # Back through the front door: DEAD -> OPEN with zero
            # cooldown, so the next dispatch half-opens and probes.
            control.revive(target, cooldown_s=0.0)

    # -- dispatch-side queries -----------------------------------------------

    def watch(self, target: str):
        """The target's crash event for a leg race (None when no crash
        is pending or the domain already came back)."""
        return self._events.get(target)

    def is_down(self, target: str) -> bool:
        """Detected-dead (decommissioned): routing and planning must not
        offer this target. Ground-truth crashes are *not* enough —
        before detection, legs still dispatch and fail fast, which is
        what drives the consecutive-failure escalation."""
        return target in self._decommissioned

    # -- failure observations → detection ------------------------------------

    def observe_crash_failure(
        self, target: str, request_id: int, count: int, inflight: bool
    ) -> None:
        """One leg observed the domain dead (drained in-flight, or
        failed fast at dispatch). Escalates toward decommission."""
        if inflight:
            self.drained += count
        else:
            self.failed_fast += count
        self.telemetry.instant(
            "domain_drain", "domain", actor=target,
            request_id=request_id, batch=count, inflight=inflight,
        )
        if target not in self._down or target in self._decommissioned:
            return
        failures = self._failures.get(target, 0) + 1
        self._failures[target] = failures
        if failures >= self.plan.detect_after_failures:
            self._decommission(target)

    def _decommission(self, target: str) -> None:
        now = self.sim.now
        self._decommissioned.add(target)
        self.dead_at[target] = now
        detect_s = now - self.crashed_at[target]
        self.telemetry.instant(
            "domain_dead", "domain", actor=target, detect_s=detect_s,
        )
        self.telemetry.counter("domain_decommissions").inc()
        control = self.system.control
        if control is not None:
            control.mark_dead(target)

    # -- rescue accounting ---------------------------------------------------

    def past_rescue_deadline(self, burned_s: float) -> bool:
        deadline = self.plan.rescue_deadline_s
        return deadline is not None and burned_s > deadline

    def on_rescue(
        self, target: str, request_id: int, burned_s: float, count: int
    ) -> None:
        self.rescued += count
        self.telemetry.instant(
            "domain_rescue", "domain", actor=target,
            request_id=request_id, burned_s=burned_s, batch=count,
            to="cpu",
        )
        self.telemetry.counter("domain_rescues", target=target).inc(count)

    def on_rescue_abandoned(
        self, target: str, request_id: int, burned_s: float, count: int
    ) -> None:
        self.rescues_abandoned += count
        self.telemetry.instant(
            "domain_rescue_abandoned", "domain", actor=target,
            request_id=request_id, burned_s=burned_s, batch=count,
        )

    # -- reporting -----------------------------------------------------------

    def detect_latency_s(self, target: str) -> Optional[float]:
        """Crash → decommission latency, None if never detected."""
        if target not in self.dead_at:
            return None
        return self.dead_at[target] - self.crashed_at[target]

    def summary(self) -> Dict[str, object]:
        """Deterministic digest for reports, demos, and tests."""
        return {
            "crashed": sorted(self.crashed_at),
            "decommissioned": sorted(self.dead_at),
            "revived": sorted(self.revived_at),
            "detect_latency_s": {
                target: self.detect_latency_s(target)
                for target in sorted(self.dead_at)
            },
            "drained": self.drained,
            "failed_fast": self.failed_fast,
            "rescued": self.rescued,
            "rescues_abandoned": self.rescues_abandoned,
        }


# -- the kill-a-card-mid-run experiment ---------------------------------------


@dataclass(frozen=True)
class RecoveryScenarioConfig:
    """One serving run with permanent failures injected mid-flight.

    ``offered_rps`` is aggregate load split evenly across ``n_tenants``
    tenant chains; ``crashes`` is the kill schedule (targets are
    dispatch names like ``"drx.s0"``). The run serves Poisson tenants on
    a ``mode`` system with the default :class:`ResilienceConfig` armed,
    at most ``max_inflight`` requests in flight, queueing every arrival
    (``ShedPolicy.QUEUE``) and dispatching FCFS. ``artifact_path``
    writes the run's telemetry artifact and — with ``verify=True`` —
    runs the conservation invariant checker on it, raising
    :class:`~repro.resilience.invariants.InvariantViolation` on any
    problem (every recovery sweep self-checks its own books).
    """

    #: The constants of every scenario (class attributes, not settable).
    mode: ClassVar[Mode] = Mode.STANDALONE
    max_inflight: ClassVar[int] = 8

    offered_rps: float
    crashes: Tuple[DomainCrash, ...]
    n_tenants: int = 4
    requests_per_tenant: int = 50
    detect_after_failures: int = 1
    rescue_deadline_s: Optional[float] = None
    benchmark: str = "sound-detection"
    chain_factory: Optional[Callable[[], List[AppChain]]] = None
    seed: int = 0
    slo_s: float = 50e-3
    batching: Optional[BatchingConfig] = None
    artifact_path: Optional[str] = None
    verify: bool = True

    def __post_init__(self) -> None:
        check_serving_fields(self, "offered_rps")

    def crash_plan(self) -> CrashPlan:
        return CrashPlan(
            crashes=self.crashes,
            detect_after_failures=self.detect_after_failures,
            rescue_deadline_s=self.rescue_deadline_s,
        )


@dataclass
class RecoveryScenarioResult:
    """One scenario's outcome, with windowed goodput queries."""

    serve: ServeResult
    domains: Dict[str, object]
    detect_latency_s: Dict[str, Optional[float]]
    artifact_path: Optional[str] = None

    @property
    def records(self) -> List[RequestRecord]:
        return self.serve.records

    def goodput_between(self, start_s: float, end_s: float) -> float:
        """Successfully answered requests per second completing within
        ``[start_s, end_s)`` of sim time — the windowed view the
        kill/recover comparison needs."""
        if end_s <= start_s:
            raise ValueError("window must have positive width")
        completed = sum(
            1
            for r in self.serve.records
            if not r.failed and start_s <= r.end < end_s
        )
        return completed / (end_s - start_s)

    def rescued_count(self) -> int:
        return sum(1 for r in self.serve.records if r.rescued)


def run_recovery_scenario(
    config: RecoveryScenarioConfig,
) -> RecoveryScenarioResult:
    """Run one crash-mid-run serving experiment end to end."""
    system = DMXSystem(
        build_chains(config),
        system_config(config.mode),
        resilience=ResilienceConfig(),
        domains=config.crash_plan(),
    )
    serve = serve_load(
        system, config.offered_rps, config.requests_per_tenant,
        FrontendConfig(
            max_inflight=config.max_inflight,
            shed=ShedPolicy.QUEUE,
            slo_s=config.slo_s,
            batching=config.batching,
        ),
        seed=config.seed,
    )
    manager = system.domains
    summary = manager.summary() if manager is not None else {}
    detect = (
        {t: manager.detect_latency_s(t) for t in sorted(manager.crashed_at)}
        if manager is not None
        else {}
    )
    if config.artifact_path is not None:
        write_run_artifact(
            config.artifact_path,
            serve,
            meta={
                "offered_rps": config.offered_rps,
                "seed": config.seed,
                "slo_s": config.slo_s,
                "mode": config.mode.value,
                "crashes": [
                    {
                        "target": c.target,
                        "at_s": c.at_s,
                        "revive_at_s": c.revive_at_s,
                    }
                    for c in config.crashes
                ],
            },
            verify=config.verify,
        )
    return RecoveryScenarioResult(
        serve=serve,
        domains=summary,
        detect_latency_s=detect,
        artifact_path=config.artifact_path,
    )
