"""The DMX system model: build a multi-accelerator server and run it.

:class:`DMXSystem` instantiates the full modeled machine for a set of
concurrent application chains under one :class:`~repro.core.placement.SystemConfig`
— host CPU, PCIe fabric (switches populated per the configured fan-out),
accelerator cards, DRX units per placement — and executes requests
through it on the DES, producing per-request latencies with
kernel / restructuring / movement / control phase breakdowns, plus the
utilization and traffic figures the energy model consumes.

This is the reproduction's equivalent of the paper's "end-to-end system
emulation infrastructure" (Sec. VI), with cost models in place of the
measured cycle-level latencies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional

from ..cpu import HostCPU
from ..drx.microarch import DRXDevice
from ..faults import (
    CrashPlan,
    DomainCrashed,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    RescueAbandoned,
    RetryExhausted,
    RetryPolicy,
    retry,
    with_timeout,
)
from ..interconnect import DMACosts, DMAEngine, Fabric, LinkConfig, PCIeGen
from ..resilience.control import ControlPlane, ResilienceConfig
from ..runtime.driver import NotificationModel
from ..sim import PhaseAccumulator, Simulator, WaitTimeout
from ..telemetry import SpanContext, SpanStep, Telemetry
from ..telemetry.spans import SpanNames, batch_attrs
from .chain import AppChain, KernelStage, MotionStage
from .placement import Mode, SystemConfig, drx_config_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..accelerators.base import AcceleratorDevice
    from ..backends.base import LegSpec, RestructureBackend
    from ..backends.planner import FixedRanking, LegPlanner, PlannerConfig

__all__ = ["RequestRecord", "RunResult", "DMXSystem",
           "PHASE_KERNEL", "PHASE_RESTRUCTURE", "PHASE_MOVEMENT",
           "PHASE_CONTROL", "PHASE_RECOVERY"]

PHASE_KERNEL = "kernel"
PHASE_RESTRUCTURE = "restructuring"
PHASE_MOVEMENT = "movement"
PHASE_CONTROL = "control"
ALL_PHASES = (PHASE_KERNEL, PHASE_RESTRUCTURE, PHASE_MOVEMENT, PHASE_CONTROL)

# Time burned on a DRX path that missed its deadline before the request
# degraded to CPU restructuring. Deliberately *not* in ALL_PHASES: the
# phase only materializes in runs with fault injection enabled, keeping
# fault-free breakdowns bit-identical to the original model.
PHASE_RECOVERY = "recovery"

#: Exceptions the per-request recovery machinery handles (everything
#: else is a genuine model bug and propagates in strict mode).
_RECOVERABLE = (WaitTimeout, InjectedFault, RetryExhausted)

#: Exceptions that terminate a request with ``failed=True``. The
#: transient set, plus a rescue abandoned past its deadline — a typed
#: *permanent*-failure outcome, deliberately kept out of ``_RECOVERABLE``
#: so nothing retries it.
_REQUEST_FATAL = _RECOVERABLE + (RescueAbandoned,)

#: Watchdog on one accelerator invocation under a FaultPlan, and the
#: bounded backoff that re-issues a hung or faulted kernel.
KERNEL_TIMEOUT_S = 50e-3
KERNEL_RETRY = RetryPolicy()

# The accelerator→DRX hop crosses the card-internal multiplexer: the
# same x8 wire rate but with near-ideal protocol efficiency and
# negligible propagation, and — being internal to the card — independent
# of the system's PCIe generation.
_MUX_CONFIG = LinkConfig(
    gen=PCIeGen.GEN3, lanes=8, protocol_efficiency=0.95,
    propagation_latency_s=50e-9,
)

# Applications sharing one large standalone DRX card.
STANDALONE_APPS_PER_CARD = 2

# When True (default), the DRX compiler fuses restructuring-op chains
# through the on-chip scratchpads so only the stage's real input/output
# touch DRAM. Toggled off by the fusion ablation study.
SCRATCHPAD_FUSION = True


_KERNEL_NAMES = SpanNames("kernel{}")
_MOTION_NAMES = SpanNames("motion{}")
_ATTEMPT_NAMES = SpanNames("{}-attempt")


@dataclass
class RequestRecord:
    """One completed end-to-end request.

    ``retries`` counts re-issued operations (DMA, kernel, notification)
    on the request's behalf; ``fell_back`` marks a request whose DRX path
    blew its deadline budget and degraded to CPU restructuring;
    ``rerouted`` marks a request the control plane proactively steered
    away from its home DRX (to an alternate unit or to CPU) *without*
    burning a timeout — distinct from ``fell_back``, which is the
    reactive path; ``failed`` marks a request whose recovery was
    exhausted (its record still exists — a production system answers
    such requests with an error, it does not hang); ``rescued`` marks a
    request with an in-flight leg drained off a *crashed* failure domain
    and resubmitted to completion on a surviving backend — distinct from
    both ``fell_back`` (retried in place after a timeout) and
    ``rerouted`` (steered before dispatch).
    """

    app: str
    start: float
    end: float
    phases: Dict[str, float]
    retries: int = 0
    fell_back: bool = False
    rerouted: bool = False
    failed: bool = False
    rescued: bool = False
    request_id: int = -1
    #: Per-motion-leg planner decisions (backend kind chosen per leg) and
    #: the matching ranking strings. ``None`` unless the system was built
    #: with ``backends=`` (the planner armed) — golden serializations of
    #: planner-free runs are unaffected by the planner subsystem.
    backend: Optional[List[str]] = None
    planner_reason: Optional[List[str]] = None

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class RunResult:
    """Aggregate outcome of a latency or throughput run."""

    mode: Mode
    records: List[RequestRecord]
    elapsed: float
    requests_per_app: int
    #: The run's telemetry (spans + metrics); write it out with
    #: :func:`repro.telemetry.write_artifact`.
    telemetry: Optional[Telemetry] = None
    #: Per-backend leg attribution — ``{kind: {planned, executed,
    #: rerouted, fallen_back}}`` — populated only when the per-leg
    #: planner is armed (``backends=`` on the system).
    backend_legs: Optional[Dict[str, Dict[str, int]]] = None

    def apps(self) -> List[str]:
        seen: List[str] = []
        for record in self.records:
            if record.app not in seen:
                seen.append(record.app)
        return seen

    def _matching(
        self, app: Optional[str], include_failed: bool
    ) -> List[RequestRecord]:
        return [
            r
            for r in self.records
            if (app is None or r.app == app)
            and (include_failed or not r.failed)
        ]

    def latencies(
        self, app: Optional[str] = None, include_failed: bool = False
    ) -> List[float]:
        """Per-request latencies; failed requests excluded by default
        (their latency measures recovery give-up, not service)."""
        return [r.latency for r in self._matching(app, include_failed)]

    def mean_latency(
        self, app: Optional[str] = None, include_failed: bool = False
    ) -> float:
        values = self.latencies(app, include_failed=include_failed)
        if not values:
            raise ValueError(f"no records for app {app!r}")
        return sum(values) / len(values)

    def phase_totals(self, app: Optional[str] = None) -> Dict[str, float]:
        acc = PhaseAccumulator(ALL_PHASES)
        for record in self.records:
            if app is None or record.app == app:
                for phase, duration in record.phases.items():
                    acc.add(phase, duration)
        return acc.totals

    def phase_fractions(self, app: Optional[str] = None) -> Dict[str, float]:
        totals = self.phase_totals(app)
        overall = sum(totals.values())
        if overall <= 0:
            return {phase: 0.0 for phase in totals}
        return {phase: t / overall for phase, t in totals.items()}

    def throughput(
        self, app: Optional[str] = None, include_failed: bool = False
    ) -> float:
        """Successfully answered requests per second over the run.

        Requests whose recovery was exhausted (``failed=True``) are
        excluded by default so they don't inflate goodput; pass
        ``include_failed=True`` for the raw completion rate.
        """
        count = len(self._matching(app, include_failed))
        if self.elapsed <= 0:
            raise ValueError("zero elapsed time")
        return count / self.elapsed

    # -- recovery-plane aggregates -------------------------------------------

    def _count(self, attr: str, app: Optional[str]) -> int:
        """Sum of ``attr`` (a count or a flag) over the records of
        ``app`` (every record when None)."""
        return sum(
            getattr(r, attr) for r in self.records
            if app is None or r.app == app
        )

    def total_retries(self, app: Optional[str] = None) -> int:
        """Operations re-issued across all matching requests."""
        return self._count("retries", app)

    def fallback_count(self, app: Optional[str] = None) -> int:
        """Requests that degraded from the DRX path to CPU restructuring."""
        return self._count("fell_back", app)

    def rerouted_count(self, app: Optional[str] = None) -> int:
        """Requests the control plane steered around an open breaker
        (proactive — no timeout burned), distinct from fallbacks."""
        return self._count("rerouted", app)

    def failure_count(self, app: Optional[str] = None) -> int:
        """Requests whose recovery was exhausted."""
        return self._count("failed", app)

    def rescued_count(self, app: Optional[str] = None) -> int:
        """Requests drained off a crashed failure domain and resubmitted
        to completion on a surviving backend — distinct from
        ``fallback_count`` (retried in place after a burned timeout)."""
        return self._count("rescued", app)

    def recovery_summary(self) -> Dict[str, object]:
        """Run-wide recovery counters for reporting.

        When the per-leg planner was armed, a ``"backends"`` key carries
        the per-backend leg attribution (legs planned / executed /
        rerouted / fallen-back per backend kind); planner-free runs keep
        the historical five-key shape exactly.
        """
        summary: Dict[str, object] = {
            "requests": len(self.records),
            "retries": self.total_retries(),
            "fallbacks": self.fallback_count(),
            "rerouted": self.rerouted_count(),
            "rescued": self.rescued_count(),
            "failures": self.failure_count(),
        }
        if self.backend_legs is not None:
            summary["backends"] = {
                kind: dict(stats)
                for kind, stats in sorted(self.backend_legs.items())
            }
        return summary


class _RequestState:
    """Mutable per-request recovery bookkeeping."""

    __slots__ = (
        "request_id", "retries", "fell_back", "rerouted", "failed",
        "rescued", "leg_backends", "leg_reasons",
    )

    def __init__(self, request_id: int):
        self.request_id = request_id
        self.retries = 0
        self.fell_back = False
        self.rerouted = False
        self.failed = False
        self.rescued = False
        self.leg_backends: List[str] = []
        self.leg_reasons: List[str] = []


class _PhaseStep(SpanStep):
    """One timed leg step, as ``with system._phase(...) as cctx:``.

    Making the step opens the phase span under ``ctx`` (``batch`` when
    the step is shared by ``count != 1`` coalesced members); entering
    returns its child context. A clean exit books ``sim.now - start``
    under ``phase`` and then closes the span at that same instant, so
    span-derived phase totals reconcile with
    :meth:`RunResult.phase_totals` to the bit. A block that raised
    closes the span ``abandoned`` (with no ``error``) and books
    nothing: the recovery path re-bills that time to
    :data:`PHASE_RECOVERY`.
    """

    __slots__ = ("phases", "ctx", "phase")

    def __init__(
        self, phases: PhaseAccumulator, ctx: SpanContext, name: str,
        phase: str, actor: str = "", count: int = 1, **attrs: object,
    ):
        if count != 1:
            attrs["batch"] = count
        telemetry = ctx.telemetry
        SpanStep.__init__(self, telemetry, telemetry.begin(
            name, phase, actor, ctx.parent_id, ctx.request_id, phase, None,
            **attrs,
        ), errors=False)
        self.phases = phases
        self.ctx = ctx
        self.phase = phase

    def __enter__(self) -> SpanContext:
        return self.ctx.child(self.span)

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.phases.add(
                self.phase, self.telemetry.sim.now - self.span.start
            )
        SpanStep.__exit__(self, exc_type, exc, tb)


class DMXSystem:
    """One simulated server instance for a set of concurrent chains.

    Pass a :class:`~repro.faults.FaultPlan` to run with fault injection
    and the recovery plane enabled (watchdog timeouts, DMA/kernel/
    notification retries, DRX-deadline fallback to CPU restructuring).
    With ``faults=None`` (the default) every code path and timing is
    identical to the fault-free model.

    Pass a :class:`~repro.resilience.ResilienceConfig` to additionally
    arm the control plane: per-DRX health monitoring and circuit
    breakers that proactively route motion stages around a sick unit —
    to a sibling unit or straight to CPU restructuring — before any
    per-request deadline is burned. With ``resilience=None`` (the
    default) dispatch is untouched.

    Pass a :class:`~repro.backends.PlannerConfig` as ``backends`` to make
    :attr:`router` the cost-based per-leg planner: every restructuring
    leg is priced on each eligible candidate backend (DRX / CPU / DSA /
    XDMA) under live contention and the cheapest admitted one runs it.
    With ``backends=None`` (the default) it is the static route: home
    DRX unit, then a sibling unit, then the CPU. A ``("drx", "cpu")``
    planner matches it only while every home unit admits traffic.

    Pass a :class:`~repro.faults.CrashPlan` as ``domains`` to arm the
    permanent-failure layer: scheduled crashes kill whole failure
    domains mid-run, in-flight legs on the dead domain are drained via
    the engine's interrupt machinery and rescued exactly once on a
    surviving backend, the domain is decommissioned (breaker DEAD, no
    new legs priced on it), and an optional revival re-admits it through
    half-open probing. A plan with no crashes arms nothing — runs stay
    byte-identical to unarmed ones.
    """

    def __init__(
        self,
        chains: List[AppChain],
        config: SystemConfig,
        faults: Optional[FaultPlan] = None,
        resilience: Optional[ResilienceConfig] = None,
        backends: Optional["PlannerConfig"] = None,
        domains: Optional[CrashPlan] = None,
    ):
        if not chains:
            raise ValueError("need at least one application chain")
        for chain in chains:
            chain.validate()
        names = [c.name for c in chains]
        if len(set(names)) != len(names):
            raise ValueError("application chain names must be unique")
        self.chains = chains
        self.config = config
        # Read once: SystemConfig is frozen, and every request span
        # carries the mode name (an Enum property read).
        self._mode_name = config.mode.name
        #: _fused memo: id(stage) -> (stage, fused profile). The entry
        #: holds its stage, so the id cannot be reused while cached.
        self._fused_profiles: Dict[int, tuple] = {}
        self.sim = Simulator()
        self.telemetry = Telemetry(self.sim)
        self._metrics_recorded = False
        #: One motion leg's DRX deadline budget (per member); None
        #: without a FaultPlan.
        self._drx_deadline_s = (
            faults.drx_deadline_s if faults is not None else None
        )
        self._request_ids = itertools.count()
        self.injector: Optional[FaultInjector] = (
            FaultInjector(
                self.sim,
                seed=faults.seed,
                policies=faults.site_policies(),
                note=self._note,
            )
            if faults is not None
            else None
        )
        self.control: Optional[ControlPlane] = (
            ControlPlane(self.sim, self.telemetry, resilience)
            if resilience is not None
            else None
        )
        # Restructuring on the host scales poorly across cores (the paper
        # observes 130-140 ephemeral MKL threads thrashing the shared cache
        # hierarchy and memory bandwidth): a high per-extra-thread overhead
        # models that sub-linear scaling.
        self.cpu = HostCPU(self.sim, max_threads=16, parallel_overhead=0.35)
        link = LinkConfig(gen=config.pcie_gen, lanes=config.accelerator_lanes)
        upstream = LinkConfig(gen=config.pcie_gen, lanes=config.upstream_lanes)
        self.fabric = Fabric(self.sim, link_config=link,
                             upstream_config=upstream)
        self.dma = DMAEngine(
            self.sim, self.fabric, DMACosts(),
            injector=self.injector,
            timeout_s=faults.dma_timeout_s if faults else None,
            retry_policy=faults.dma_retry if faults else None,
        )
        self.notifier = NotificationModel(
            self.sim, self.cpu, injector=self.injector
        )
        self.accel_devices: Dict[str, "AcceleratorDevice"] = {}
        self.drx_devices: Dict[str, DRXDevice] = {}
        self._accel_names: Dict[tuple, str] = {}  # (app_idx, stage_idx) -> name
        self._switch_of: Dict[str, str] = {}
        self._standalone_drx_of: Dict[int, str] = {}
        #: upstream_crossings memo: (app index, card) -> crossings.
        self._crossings: Dict[tuple, int] = {}
        self._build_topology()
        # The leg routers (lazy import: repro.backends pulls repro.core
        # back in for chain/placement types and the phase names).
        from ..backends.planner import FixedRanking, LegPlanner

        self.planner: Optional[LegPlanner] = (
            LegPlanner(self, backends) if backends is not None else None
        )
        #: Per-backend leg attribution; empty unless the planner is armed.
        self.backend_stats: Dict[str, Dict[str, int]] = (
            self.planner.stats if self.planner is not None else {}
        )
        # The permanent-failure layer (lazy import: the recovery module
        # pulls repro.core back in for the system type). Constructed only
        # when the plan actually schedules a crash, so an armed-but-empty
        # plan adds zero events and zero draws — byte identity holds.
        if domains is not None and domains.crashes:
            from ..resilience.recovery import DomainManager

            self.domains: Optional[DomainManager] = DomainManager(
                self, domains
            )
        else:
            self.domains = None
        #: Routes every DRX-placement motion leg: the planner when armed,
        #: else the static route.
        self.router: "LegPlanner | FixedRanking" = (
            self.planner if self.planner is not None else FixedRanking(self)
        )

    # -- topology ------------------------------------------------------------

    def _build_topology(self) -> None:
        from ..accelerators.base import AcceleratorDevice

        config = self.config
        mode = config.mode
        drx_config = drx_config_for(config)

        switch_index = -1
        slots_left = 0
        current_switch = None
        for app_index, chain in enumerate(self.chains):
            app_first_switch = None
            for stage_index, stage in enumerate(chain.stages):
                if not isinstance(stage, KernelStage):
                    continue
                if slots_left == 0:
                    switch_index += 1
                    current_switch = self.fabric.add_switch(f"sw{switch_index}")
                    slots_left = config.accelerators_per_switch
                name = f"a{app_index}k{stage_index // 2}"
                self.fabric.add_endpoint(name, current_switch)
                slots_left -= 1
                if app_first_switch is None:
                    app_first_switch = current_switch
                self._accel_names[(app_index, stage_index)] = name
                self._switch_of[name] = current_switch.name
                self.accel_devices[name] = AcceleratorDevice(
                    self.sim, stage.spec, stage.accel_time_s, name=name
                )
                if mode == Mode.BUMP_IN_WIRE:
                    drx_name = f"{name}.drx"
                    self.fabric.add_inline(
                        drx_name, name, mux_config=_MUX_CONFIG
                    )
                    self.drx_devices[drx_name] = DRXDevice(
                        self.sim, drx_config, name=drx_name
                    )
            if mode == Mode.STANDALONE:
                # Standalone cards scale with the concurrent applications
                # ("installing multiple Standalone DRX cards can scale DRX
                # performance"), but each is a *large* card shared by a
                # couple of applications — the amortization of glue logic
                # the paper credits this placement with.
                group = app_index // STANDALONE_APPS_PER_CARD
                drx_name = f"drx.s{group}"
                if drx_name not in self.drx_devices:
                    self.fabric.add_endpoint(drx_name, app_first_switch)
                    self.drx_devices[drx_name] = DRXDevice(
                        self.sim, drx_config, name=drx_name
                    )
                    self._switch_of[drx_name] = app_first_switch.name
                self._standalone_drx_of[app_index] = drx_name

        if mode == Mode.INTEGRATED:
            # One DRX beside the CPU, shared by every application.
            self.drx_devices["drx.root"] = DRXDevice(
                self.sim, drx_config, name="drx.root"
            )
        if mode == Mode.PCIE_INTEGRATED:
            for switch_name in [
                n.name for n in self.fabric.nodes.values() if n.kind == "switch"
            ]:
                self.drx_devices[f"drx.{switch_name}"] = DRXDevice(
                    self.sim, drx_config, name=f"drx.{switch_name}"
                )

    @property
    def n_switches(self) -> int:
        return sum(1 for n in self.fabric.nodes.values() if n.kind == "switch")

    def accel_name(self, app_index: int, kernel_index: int) -> str:
        return self._accel_names[(app_index, kernel_index * 2)]

    # -- per-request process ----------------------------------------------------

    #: One timed leg step: ``with self._phase(phases, ctx, name, phase,
    #: actor="", count=1, **attrs) as cctx: yield from op(cctx)``. The
    #: step class itself, since a step needs nothing of the system (its
    #: clock comes with the span context).
    _phase = _PhaseStep

    # -- recovery-plane plumbing ---------------------------------------------

    def _note(
        self,
        kind: str,
        actor: str,
        site: str = "",
        request_id: int = -1,
        detail: str = "",
    ) -> None:
        """Record one fault-plane event (an injection, retry, fallback,
        drain or give-up) as a ``fault`` telemetry instant, the only
        record of it; runs without a FaultPlan record none."""
        if self.injector is not None:
            self.telemetry.instant(
                kind, "fault", actor=actor, request_id=request_id,
                site=site, detail=detail,
            )

    def _retry_cb(
        self, state: _RequestState, site: str, actor: str
    ) -> Optional[Callable[[int, BaseException, bool], None]]:
        """Per-operation failed-attempt observer: per-request retry count
        plus a fault note. None in fault-free runs (fast path)."""
        if self.injector is None:
            return None

        def cb(attempt: int, exc: BaseException, will_retry: bool) -> None:
            rid = state.request_id
            if will_retry:
                state.retries += 1
                self.telemetry.counter("retries", site=site).inc()
                self._note("retry", actor, site=site, request_id=rid,
                           detail=type(exc).__name__)
            else:
                self._note("exhausted", actor, site=site, request_id=rid,
                           detail=type(exc).__name__)

        return cb

    def _guard(
        self, site: str, op: Generator, actor: str, state: _RequestState
    ) -> Generator:
        """``op`` under the fault policy of injection ``site`` when a
        FaultPlan is armed, else ``op`` itself."""
        if self.injector is None:
            return op
        return self.injector.guard(
            site, op, actor=actor, request_id=state.request_id
        )

    def _drx_placement(self, mode: Mode, src: str, app_index: int):
        """The DRX unit serving ``src`` and its staging point."""
        if mode == Mode.INTEGRATED:
            return self.drx_devices["drx.root"], "root"
        if mode == Mode.STANDALONE:
            drx = self.drx_devices[self._standalone_drx_of[app_index]]
            return drx, drx.name
        if mode == Mode.BUMP_IN_WIRE:
            drx = self.drx_devices[f"{src}.drx"]
            return drx, drx.name
        if mode == Mode.PCIE_INTEGRATED:
            switch = self._switch_of[src]
            return self.drx_devices[f"drx.{switch}"], switch
        raise AssertionError(f"unhandled mode {mode}")  # pragma: no cover

    # -- placement control surface (the closed-loop controller's actuator) ----

    def standalone_cards(self) -> List[str]:
        """Standalone DRX card names, sorted (empty in other modes)."""
        if self.config.mode is not Mode.STANDALONE:
            return []
        return sorted(self.drx_devices)

    def card_of_app(self, app_index: int) -> str:
        """The standalone card currently homing ``app_index``'s legs."""
        return self._standalone_drx_of[app_index]

    def card_switch(self, card: str) -> str:
        """The switch a standalone card hangs off."""
        return self._switch_of[card]

    def upstream_crossings(self, app_index: int, card: str) -> int:
        """Upstream (switch→root→switch) traversals one request on chain
        ``app_index`` pays with its motion legs staged on ``card``.

        Each motion stage moves ``src accel → card → dst accel``; every
        endpoint on a different switch than the card costs one crossing
        each way. This is the placement optimizer's objective: staged on
        its home-switch card an app crosses zero upstream links, staged
        remotely every leg round-trips the root complex. The chains and
        the tree are fixed once built, so each pair is counted once.
        """
        key = (app_index, card)
        crossings = self._crossings.get(key)
        if crossings is None:
            crossings = self._crossings[key] = self._count_crossings(
                app_index, card
            )
        return crossings

    def _count_crossings(self, app_index: int, card: str) -> int:
        card_switch = self._switch_of[card]
        crossings = 0
        for stage_index, stage in enumerate(self.chains[app_index].stages):
            if not isinstance(stage, MotionStage):
                continue
            src = self._accel_names[(app_index, stage_index - 1)]
            dst = self._accel_names[(app_index, stage_index + 1)]
            if self._switch_of[src] != card_switch:
                crossings += 1
            if self._switch_of[dst] != card_switch:
                crossings += 1
        return crossings

    def migrate_app(self, app_index: int, card: str) -> str:
        """Re-home chain ``app_index``'s motion staging onto ``card``.

        STANDALONE-placement live migration: the mapping is consulted at
        every motion leg's placement lookup, so the next leg dispatched
        for the app stages on the new card — in-flight legs finish where
        they started. Callers (the closed-loop controller) migrate at
        request boundaries so a single request never splits across
        cards. Returns the card the app was homed on before.
        """
        if self.config.mode is not Mode.STANDALONE:
            raise ValueError(
                "migrate_app is a STANDALONE-placement operation "
                f"(mode is {self.config.mode})"
            )
        if card not in self.drx_devices:
            raise KeyError(f"no standalone card named {card!r}")
        if not 0 <= app_index < len(self.chains):
            raise IndexError(f"app_index {app_index} out of range")
        old = self._standalone_drx_of[app_index]
        self._standalone_drx_of[app_index] = card
        return old

    def _motion(
        self,
        app_index: int,
        kernel_index: int,
        stage: MotionStage,
        count: int,
        phases: PhaseAccumulator,
        state: _RequestState,
        rctx: SpanContext,
        force_cpu: bool = False,
    ) -> Generator:
        """The data-motion step between kernel ``kernel_index`` and the
        next one, under the configured placement, for ``count`` member
        payloads moving as one coalesced leg."""
        mode = self.config.mode
        src = self.accel_name(app_index, kernel_index)
        dst = self.accel_name(app_index, kernel_index + 1)
        threads = stage.cpu_threads
        with rctx.step(
            _MOTION_NAMES[kernel_index], "stage", errors=False,
            src=src, dst=dst, **batch_attrs(count),
        ) as step:
            sctx = rctx.child(step.span)
            if mode == Mode.ALL_CPU:
                # Data already lives in host memory; only the computation.
                with self._phase(
                    phases, sctx, "cpu-restructure", PHASE_RESTRUCTURE,
                    actor="cpu", count=count, threads=threads,
                ):
                    yield from self.router.cpu.restructure(
                        stage.profile, threads, count
                    )
                return

            # Kernel-completion notification + DMA setup (control plane).
            # ONE notification covers a whole batch: its kernels were
            # submitted as one chain, so the device raises one interrupt
            # with ``count`` completion records behind it.
            with self._phase(
                phases, sctx, "control", PHASE_CONTROL, count=count
            ) as cctx:
                yield from self.notifier.notify(
                    src, on_retry=self._retry_cb(state, "notify", src),
                    ctx=cctx, count=count,
                )

            if mode == Mode.MULTI_AXL:
                yield from self.router.cpu.motion(
                    src, dst, stage, threads, count, phases, state, sctx
                )
                return

            router = self.router
            backend, leg, probe = router.route(
                app_index, src, dst, stage, count, state, step.span,
                force_cpu,
            )
            if backend is router.cpu:
                # The CPU path is never breaker-gated or deadline-raced:
                # it IS the fallback. A leg routed here burns no DRX
                # deadline.
                yield from backend.execute(leg, phases, state, sctx)
                outcome = "done"
            else:
                outcome = yield from self._guarded_leg(
                    backend, leg, probe, phases, state, sctx
                )
            router.executed(backend.kind, outcome)

    def _fused(self, stage: MotionStage):
        """The profile an accelerator executes for ``stage``.

        On DRX, the restructuring-op chain is fused through the on-chip
        scratchpads (the compiler keeps intermediates on chip), so DRAM
        traffic is just the stage's real input and output — unlike the
        CPU, whose cache hierarchy materializes every intermediate.
        Built once per stage, keyed by identity (cheaper than hashing
        the frozen stage); every later leg gets the same object.
        """
        hit = self._fused_profiles.get(id(stage))
        if hit is not None:
            return hit[1]
        if SCRATCHPAD_FUSION:
            fused = replace(
                stage.profile,
                bytes_in=stage.input_bytes,
                bytes_out=stage.output_bytes,
            )
        else:
            fused = stage.profile  # fusion ablation: intermediates hit DRAM
        self._fused_profiles[id(stage)] = (stage, fused)
        return fused

    def _guarded_leg(
        self,
        backend: "RestructureBackend",
        leg: "LegSpec",
        probe: bool,
        phases: PhaseAccumulator,
        state: _RequestState,
        sctx: SpanContext,
    ) -> Generator:
        """Run one accelerator ``leg`` on ``backend`` under the recovery
        plane; returns ``"done"``, ``"fell_back"`` or ``"rescued"``.

        Fault-free, crash-free runs execute the leg directly. Otherwise
        one :func:`~repro.faults.with_timeout` race runs it under the
        request's deadline budget (one per member) and, when the
        target's failure domain has a crash scheduled, against the crash
        broadcast too. One handler degrades a failed leg: past the
        deadline, or on any recoverable failure, the leg falls back to
        the router's CPU backend (host restructuring via host memory); a
        crashed domain's leg is drained and rescued there exactly once,
        carrying the burned latency, unless it is past the plan's rescue
        deadline. A batch degrades as a unit — no member is lost.
        """
        target = backend.target(leg)
        site = backend.kind
        count = leg.count
        domains = self.domains
        crash_ev = domains.watch(target) if domains is not None else None
        if self.injector is None and crash_ev is None:
            leg_start = self.sim.now
            yield from backend.execute(leg, phases, state, sctx)
            if self.control is not None:
                self.control.record(
                    target, True, self.sim.now - leg_start, probe=probe
                )
            return "done"

        local = PhaseAccumulator(ALL_PHASES)
        span_start = self.sim.now
        deadline_s = (
            self._drx_deadline_s * count
            if self._drx_deadline_s is not None
            else None
        )
        attempt = sctx.begin(
            _ATTEMPT_NAMES[site], "attempt", deadline_s=deadline_s,
            **batch_attrs(count),
            **({"breaker_probe": True} if probe else {}),
        )
        rid = state.request_id
        abort = None
        if crash_ev is not None:
            # A dead domain drains the leg in flight (or fails it fast
            # at dispatch, before any deadline budget burns).
            abort = (crash_ev, lambda inflight: DomainCrashed(
                target, domains.crashed_at[target], inflight
            ))
        try:
            yield from with_timeout(
                self.sim,
                backend.execute(leg, local, state, sctx.child(attempt)),
                deadline_s, what=f"{site}:{target}", abort=abort,
            )
        except _RECOVERABLE + (DomainCrashed,) as exc:
            cause = type(exc).__name__
            crashed = isinstance(exc, DomainCrashed)
            burned = self.sim.now - span_start
            if self.control is not None:
                self.control.record(target, False, burned, probe=probe)
            if crashed:
                domains.observe_crash_failure(
                    target, rid, count, exc.inflight
                )
                self._note(
                    "drain", target, site="domain", request_id=rid,
                    detail=cause,
                )
            else:
                state.fell_back = True
                self._note(
                    "fallback", target, site=site, request_id=rid,
                    detail=cause,
                )
            # The whole attempt subtree is dead time: abandon it (phase
            # spans under it stop counting toward phase totals) and
            # re-bill the interval to the recovery phase. A fallback
            # always burns time first (DMA setup, the overlapped ingest,
            # XDMA programming or a positive deadline); a leg failed
            # fast at dispatch burns none and books nothing.
            self.telemetry.end(attempt, error=cause)
            self.telemetry.mark_abandoned(attempt)
            if burned:
                phases.add(PHASE_RECOVERY, burned)
                self.telemetry.add(
                    "recovery", PHASE_RECOVERY, start=span_start,
                    end=self.sim.now, actor=target,
                    parent=sctx.parent_id, request_id=sctx.request_id,
                    phase=PHASE_RECOVERY, cause=cause,
                )
            if crashed and domains.past_rescue_deadline(burned):
                domains.on_rescue_abandoned(target, rid, burned, count)
                raise RescueAbandoned(target, burned)
            # Finish the leg on the host (the Multi-Axl path): a crashed
            # domain's leg is rescued there exactly once, carrying the
            # burned latency.
            yield from self.router.cpu.execute(leg, phases, state, sctx)
            if not crashed:
                return "fell_back"
            state.rescued = True
            domains.on_rescue(target, rid, burned, count)
            return "rescued"
        if self.control is not None:
            self.control.record(
                target, True, self.sim.now - span_start, probe=probe
            )
        self.telemetry.end(attempt)
        for phase, duration in local.totals.items():
            if duration:
                phases.add(phase, duration)
        return "done"

    def _recovering_kernel(
        self, device, state: _RequestState
    ) -> Generator:
        """One accelerator invocation under the kernel watchdog: a hung
        or faulted kernel is interrupted (freeing the card's queue slot)
        and re-issued with bounded backoff."""
        yield from retry(
            self.sim,
            lambda: self._guard(
                "kernel", device.execute(), device.name, state
            ),
            KERNEL_RETRY,
            timeout_s=KERNEL_TIMEOUT_S,
            on_attempt_failed=self._retry_cb(state, "kernel", device.name),
            what=f"kernel:{device.name}",
        )

    def _request(
        self,
        app_index: int,
        chain: AppChain,
        records: Optional[List[RequestRecord]] = None,
        parent_span: Optional[int] = None,
        force_cpu: bool = False,
        count: int = 1,
    ) -> Generator:
        """Run ``count`` same-chain requests as one submission per stage;
        returns their :class:`RequestRecord` list (and extends
        ``records`` with it when a sink is given).

        A single request is a batch of one. Kernels run per member (the
        accelerator computes every payload), but each motion leg pays a
        single control path for all members — one chained descriptor
        submission + doorbell on the DMA, one amortized DRX program load,
        one coalesced completion ISR. This is the serve layer's
        :class:`~repro.serve.batching.BatchFormer` execution target.

        A batch's root is a ``batch-exec`` span with one addressable
        ``request`` span per member under it; a single request's root is
        its own ``request`` span. Members share the wall-clock interval,
        and phase time is split evenly across them, so per-member records
        still sum to the booked phase totals (and reconcile with
        span-derived totals). Shared-leg retries (DMA, notification) are
        booked on the lead member only, so summing ``retries`` over the
        records counts each physical retry once; a kernel retry stays on
        its own member. Fallback, reroute, failure and rescue outcomes
        are mirrored onto every member — a batch degrades or fails as a
        unit, never losing individual members.
        """
        phases = PhaseAccumulator(ALL_PHASES)
        states = [_RequestState(next(self._request_ids)) for _ in range(count)]
        lead = states[0]
        start = self.sim.now
        kernel_index = 0
        mode = self._mode_name
        if count == 1:
            root = self.telemetry.begin(
                f"{chain.name}#r{lead.request_id}", "request",
                actor=chain.name, parent=parent_span,
                request_id=lead.request_id, mode=mode, app=chain.name,
            )
            rctx = self.telemetry.context(root, lead.request_id)
            members = [(lead, root, rctx)]
        else:
            root = self.telemetry.begin(
                f"{chain.name}#b{lead.request_id}x{count}", "batch-exec",
                actor=chain.name, parent=parent_span,
                request_id=lead.request_id, mode=mode, app=chain.name,
                batch=count,
            )
            rctx = self.telemetry.context(root, lead.request_id)
            # Phase spans hang off the shared batch context (the work is
            # genuinely shared); member kernels hang off each member.
            members = []
            for st in states:
                span = self.telemetry.begin(
                    f"{chain.name}#r{st.request_id}", "request",
                    actor=chain.name, parent=root, request_id=st.request_id,
                    mode=mode, app=chain.name, batched=True,
                )
                members.append(
                    (st, span, self.telemetry.context(span, st.request_id))
                )
        try:
            for stage in chain.stages:
                if isinstance(stage, KernelStage):
                    if self.config.mode == Mode.ALL_CPU:
                        # Work-conserving scheduling: the MKL-style runtime
                        # shrinks per-job fan-out as concurrent applications
                        # saturate the socket, so core-seconds per job fall
                        # back toward the serial cost under load.
                        threads = max(
                            1,
                            min(stage.cpu_threads,
                                self.cpu.spec.cores // len(self.chains)),
                        )
                        for _, _, mctx in members:
                            with self._phase(
                                phases, mctx, _KERNEL_NAMES[kernel_index],
                                PHASE_KERNEL, actor="cpu", threads=threads,
                            ):
                                yield from self.cpu.run_kernel(
                                    stage.cpu_latency(threads),
                                    threads=threads,
                                )
                    else:
                        device = self.accel_devices[
                            self.accel_name(app_index, kernel_index)
                        ]
                        for st, _, mctx in members:
                            with self._phase(
                                phases, mctx, _KERNEL_NAMES[kernel_index],
                                PHASE_KERNEL, actor=device.name,
                            ):
                                yield from (
                                    device.execute()
                                    if self.injector is None
                                    else self._recovering_kernel(device, st)
                                )
                    kernel_index += 1
                else:
                    yield from self._motion(
                        app_index, kernel_index - 1, stage, count, phases,
                        lead, rctx, force_cpu=force_cpu,
                    )
        except _REQUEST_FATAL as exc:
            # Recovery exhausted (or a drained leg abandoned past its
            # rescue deadline): answer the request with an error instead
            # of wedging the chain (or the whole simulation).
            for st in states:
                st.failed = True
            self._note(
                "giveup", chain.name, site="request",
                request_id=lead.request_id, detail=type(exc).__name__,
            )
        # Leg outcomes land on the lead state; mirror them onto every
        # member so no record under-reports its degradation.
        for st in states[1:]:
            st.fell_back = st.fell_back or lead.fell_back
            st.rerouted = st.rerouted or lead.rerouted
            st.failed = st.failed or lead.failed
            st.rescued = st.rescued or lead.rescued
        end = self.sim.now
        share = phases.totals if count == 1 else {
            phase: duration / count for phase, duration in phases.totals.items()
        }
        out = []
        for st, span, _ in members:
            if span is not root:
                self.telemetry.end(
                    span, retries=st.retries, fell_back=st.fell_back,
                    rerouted=st.rerouted, failed=st.failed,
                    **({"rescued": True} if st.rescued else {}),
                )
            out.append(RequestRecord(
                app=chain.name, start=start, end=end,
                phases=dict(share),
                retries=st.retries, fell_back=st.fell_back,
                rerouted=st.rerouted, failed=st.failed,
                rescued=st.rescued,
                request_id=st.request_id,
                # A batch plans once; every member shares the decision.
                backend=(
                    list(lead.leg_backends)
                    if self.planner is not None else None
                ),
                planner_reason=(
                    list(lead.leg_reasons)
                    if self.planner is not None else None
                ),
            ))
        self.telemetry.end(
            root, retries=lead.retries, fell_back=lead.fell_back,
            rerouted=lead.rerouted, failed=lead.failed,
            **({"rescued": True} if lead.rescued else {}),
        )
        if records is not None:
            records.extend(out)
        return out

    # -- external entry points -------------------------------------------------

    def app_index(self, name: str) -> int:
        """Index of the application chain called ``name``."""
        for index, chain in enumerate(self.chains):
            if chain.name == name:
                return index
        raise KeyError(f"no application chain named {name!r}")

    def submit(
        self,
        app_index: int,
        parent_span: Optional[int] = None,
        force_cpu: bool = False,
    ) -> Generator:
        """Process helper: run one request through the system.

        The entry point for external drivers: from any process on this
        system's simulator, ``record = yield from system.submit(i)``
        issues one request on chain ``i`` and returns its
        :class:`RequestRecord` on completion — including degraded or
        failed completions when a :class:`~repro.faults.FaultPlan` is
        armed. Unlike the ``run_*`` drivers, ``submit`` does not touch
        the simulator loop; the caller decides arrival times,
        concurrency, and admission. ``parent_span`` hangs the request's
        span tree under a caller span. ``force_cpu=True`` restructures
        every motion stage on the host CPU regardless of placement — the
        brownout ladder's last tier. It is the count-1
        :meth:`submit_batch`, which the serving frontend calls directly.
        """
        (record,) = yield from self.submit_batch(
            app_index, 1, parent_span=parent_span, force_cpu=force_cpu
        )
        return record

    def submit_batch(
        self,
        app_index: int,
        count: int,
        parent_span: Optional[int] = None,
        force_cpu: bool = False,
    ) -> Generator:
        """Process helper: run ``count`` requests on chain ``app_index``
        as one coalesced batch; returns a list of ``count``
        :class:`RequestRecord` objects.

        Each motion leg pays a single control path for all members (one
        chained descriptor submission + doorbell, one amortized DRX
        program load, one coalesced completion ISR), while kernels and
        payload restructuring still execute per member. A single request
        is a batch of one on the same path, so ``submit_batch(i, 1)`` is
        bit-identical to ``submit(i)``.
        """
        if not 0 <= app_index < len(self.chains):
            raise IndexError(
                f"app_index {app_index} out of range "
                f"(0..{len(self.chains) - 1})"
            )
        if count < 1:
            raise ValueError(f"batch needs count >= 1: {count}")
        records = yield from self._request(
            app_index, self.chains[app_index], parent_span=parent_span,
            force_cpu=force_cpu, count=count,
        )
        return records

    # -- run modes ------------------------------------------------------------

    def run_latency(self, requests_per_app: int = 4) -> RunResult:
        """Closed-loop: each app issues its next request on completion.

        Concurrency across apps is the contention the paper sweeps (1,
        5, 10, 15 concurrent applications).
        """
        if requests_per_app <= 0:
            raise ValueError("requests_per_app must be positive")
        records: List[RequestRecord] = []

        def app_loop(app_index: int, chain: AppChain) -> Generator:
            for _ in range(requests_per_app):
                yield from self._request(app_index, chain, records)

        for app_index, chain in enumerate(self.chains):
            self.sim.spawn(app_loop(app_index, chain))
        self.sim.run()
        return self._finish_run(records, requests_per_app)

    def run_throughput(self, requests_per_app: int = 12) -> RunResult:
        """Batch-issue pipelined: every request is issued at t=0; stages
        overlap across requests, so the slowest stage sets throughput.

        This measures the system's drain rate on a fixed backlog, not
        behaviour under online traffic — for true open-loop arrivals
        (stochastic interarrival times, admission control, SLO
        percentiles) use the serving layer in :mod:`repro.serve`.
        """
        if requests_per_app <= 0:
            raise ValueError("requests_per_app must be positive")
        records: List[RequestRecord] = []
        procs = []
        for app_index, chain in enumerate(self.chains):
            for _ in range(requests_per_app):
                procs.append(
                    self.sim.spawn(self._request(app_index, chain, records))
                )
        self.sim.run()
        return self._finish_run(records, requests_per_app)

    def _finish_run(
        self, records: List[RequestRecord], requests_per_app: int
    ) -> RunResult:
        """The tail both run modes share once the DES drains: close
        straggling spans, fold the device counters into the metrics,
        and wrap up the result."""
        self.telemetry.finalize()
        self._record_run_metrics()
        return RunResult(
            mode=self.config.mode,
            records=records,
            elapsed=self.sim.now,
            requests_per_app=requests_per_app,
            telemetry=self.telemetry,
            backend_legs=self._backend_legs_snapshot(),
        )

    def _backend_legs_snapshot(self) -> Optional[Dict[str, Dict[str, int]]]:
        """Copy of the per-backend leg attribution; None unless the
        planner is armed (so planner-free results keep their shape)."""
        if self.planner is None:
            return None
        return {kind: dict(stats) for kind, stats in self.backend_stats.items()}

    # -- post-run accounting (energy model inputs) ---------------------------------

    def _record_run_metrics(self) -> None:
        """Fold end-of-run device/driver counters into the metrics
        registry (idempotent — the serving frontend and the run drivers
        may both call it)."""
        if self._metrics_recorded:
            return
        self._metrics_recorded = True
        t = self.telemetry
        for name in sorted(self.drx_devices):
            t.sample_gauge(
                "drx_utilization", self.drx_devices[name].utilization(),
                device=name,
            )
        for name in sorted(self.accel_devices):
            t.sample_gauge(
                "accel_busy_s", self.accel_devices[name].busy_seconds,
                device=name,
            )
        t.counter("dma_transfers").inc(self.dma.transfers_completed)
        t.counter("dma_descriptors").inc(self.dma.descriptors_submitted)
        t.counter("dma_bytes").inc(self.dma.bytes_transferred)
        t.counter("fabric_bytes").inc(self.bytes_moved())
        stats = self.notifier.stats
        t.counter("notifications", mode="interrupt").inc(stats.interrupts)
        t.counter("notifications", mode="coalesced").inc(stats.coalesced)
        t.counter("notifications", mode="poll").inc(stats.polled)

    def accelerator_busy_seconds(self) -> float:
        return sum(d.busy_seconds for d in self.accel_devices.values())

    def drx_busy_seconds(self) -> float:
        return sum(d.busy_seconds for d in self.drx_devices.values())

    def bytes_moved(self) -> int:
        return self.fabric.total_bytes_moved()
