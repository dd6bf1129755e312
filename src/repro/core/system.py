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
    retry,
    with_timeout,
)
from ..faults.recovery import shielded
from ..interconnect import DMACosts, DMAEngine, Fabric, LinkConfig, PCIeGen
from ..resilience.control import ControlPlane, ResilienceConfig
from ..runtime.driver import NotificationModel
from ..sim import AllOf, AnyOf, PhaseAccumulator, Simulator, Trace, \
    WaitTimeout
from ..sim.tracing import FaultRecord
from ..telemetry import ActiveSpan, SpanContext, Telemetry
from ..telemetry.spans import batch_attrs
from .chain import AppChain, KernelStage, MotionStage
from .placement import Mode, SystemConfig, drx_config_for

if TYPE_CHECKING:  # pragma: no cover - typing only
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

# Transfers that stage through host memory (Multi-Axl and Integrated-DRX
# paths) pay a DRAM store on the way in and a load on the way out, on
# top of the PCIe crossing. Effective host DMA-staging bandwidth:
HOST_STAGING_BYTES_PER_S = 25e9

# When True (default), the DRX compiler fuses restructuring-op chains
# through the on-chip scratchpads so only the stage's real input/output
# touch DRAM. Toggled off by the fusion ablation study.
SCRATCHPAD_FUSION = True


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

    def total_retries(self, app: Optional[str] = None) -> int:
        """Operations re-issued across all matching requests."""
        return sum(
            r.retries for r in self.records if app is None or r.app == app
        )

    def fallback_count(self, app: Optional[str] = None) -> int:
        """Requests that degraded from the DRX path to CPU restructuring."""
        return sum(
            1
            for r in self.records
            if r.fell_back and (app is None or r.app == app)
        )

    def rerouted_count(self, app: Optional[str] = None) -> int:
        """Requests the control plane steered around an open breaker
        (proactive — no timeout burned), distinct from fallbacks."""
        return sum(
            1
            for r in self.records
            if r.rerouted and (app is None or r.app == app)
        )

    def failure_count(self, app: Optional[str] = None) -> int:
        """Requests whose recovery was exhausted."""
        return sum(
            1
            for r in self.records
            if r.failed and (app is None or r.app == app)
        )

    def rescued_count(self, app: Optional[str] = None) -> int:
        """Requests drained off a crashed failure domain and resubmitted
        to completion on a surviving backend — distinct from
        ``fallback_count`` (retried in place after a burned timeout)."""
        return sum(
            1
            for r in self.records
            if r.rescued and (app is None or r.app == app)
        )

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
        telemetry_enabled: bool = True,
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
        self.telemetry = Telemetry(self.sim, enabled=telemetry_enabled)
        self._metrics_recorded = False
        self._faults = faults
        self._request_ids = itertools.count()
        if faults is not None:
            self.fault_trace: Optional[Trace] = Trace(
                note_listener=self._fault_instant
            )
            self.injector: Optional[FaultInjector] = FaultInjector(
                self.sim,
                seed=faults.seed,
                policies=faults.site_policies(),
                trace=self.fault_trace,
            )
        else:
            self.fault_trace = None
            self.injector = None
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
        if self.injector is not None:
            self.fabric.injector = self.injector
        self.dma = DMAEngine(
            self.sim, self.fabric, DMACosts(),
            injector=self.injector,
            timeout_s=faults.dma_timeout_s if faults else None,
            retry_policy=faults.dma_retry if faults else None,
        )
        self.notifier = NotificationModel(
            self.sim, self.cpu,
            injector=self.injector,
            timeout_s=faults.notify_timeout_s if faults else None,
            retry_policy=faults.notify_retry if faults else None,
        )
        self.accel_devices: Dict[str, "AcceleratorDeviceProxy"] = {}
        self.drx_devices: Dict[str, DRXDevice] = {}
        self._accel_names: Dict[tuple, str] = {}  # (app_idx, stage_idx) -> name
        self._switch_of: Dict[str, str] = {}
        self._standalone_drx_of: Dict[int, str] = {}
        #: upstream_crossings memo: (app index, card) -> crossings.
        self._crossings: Dict[tuple, int] = {}
        self._build_topology()
        # The leg routers (lazy import: repro.backends pulls repro.core
        # back in for chain/placement types).
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

    def _timed(
        self,
        phases: PhaseAccumulator,
        phase: str,
        proc,
        span: Optional[ActiveSpan] = None,
    ) -> Generator:
        """Run ``proc`` and book its elapsed time under ``phase``.

        ``span`` is the matching telemetry phase span (opened by the
        caller at the same sim time): it closes exactly at the
        ``phases.add`` boundary, so span-derived phase totals reconcile
        with :meth:`RunResult.phase_totals` to the bit. On an exception
        the span is closed ``abandoned`` and the phase is *not* booked —
        the recovery path re-bills that time to :data:`PHASE_RECOVERY`.
        """
        start = self.sim.now
        try:
            result = yield from proc
        except BaseException:
            if span is not None:
                self.telemetry.end(span, abandoned=True)
            raise
        phases.add(phase, self.sim.now - start)
        if span is not None:
            self.telemetry.end(span)
        return result

    def _phase_span(
        self, ctx: SpanContext, name: str, phase: str, actor: str = "",
        count: int = 1, **attrs: object,
    ):
        """Open a phase span under ``ctx``; returns (span, child ctx). A
        phase shared by ``count`` coalesced members carries ``batch``."""
        if count != 1:
            attrs["batch"] = count
        span = ctx.begin(name, phase, actor=actor, phase=phase, **attrs)
        return span, ctx.child(span)

    # -- recovery-plane plumbing ---------------------------------------------

    def _fault_instant(self, ev: FaultRecord) -> None:
        """Mirror one fault-trace note into the telemetry instant stream."""
        self.telemetry.instant(
            ev.kind, "fault", actor=ev.actor, request_id=ev.request_id,
            time=ev.time, site=ev.site, detail=ev.detail,
        )

    def _note(
        self,
        kind: str,
        actor: str,
        site: str = "",
        request_id: int = -1,
        detail: str = "",
    ) -> None:
        if self.fault_trace is not None:
            self.fault_trace.note(
                self.sim.now, actor, kind,
                site=site, request_id=request_id, detail=detail,
            )

    def _retry_cb(
        self, state: Optional[_RequestState], site: str, actor: str
    ) -> Optional[Callable[[int, BaseException, bool], None]]:
        """Per-operation failed-attempt observer: per-request retry count
        plus a trace record. None in fault-free runs (fast path)."""
        if self._faults is None:
            return None

        def cb(attempt: int, exc: BaseException, will_retry: bool) -> None:
            rid = state.request_id if state is not None else -1
            if will_retry:
                if state is not None:
                    state.retries += 1
                if self.telemetry.enabled:
                    self.telemetry.counter("retries", site=site).inc()
                self._note("retry", actor, site=site, request_id=rid,
                           detail=type(exc).__name__)
            else:
                self._note("exhausted", actor, site=site, request_id=rid,
                           detail=type(exc).__name__)

        return cb

    def _leg_race(
        self,
        op: Generator,
        deadline_s: Optional[float],
        crash_ev,
        target: str,
        what: str,
    ) -> Generator:
        """Run one motion leg racing its deadline *and* its failure
        domain's crash broadcast.

        With ``crash_ev=None`` (no crash scheduled on the target) this
        is exactly :func:`~repro.faults.with_timeout` — the legacy
        deadline race, byte for byte. With a crash event armed, three
        outcomes race: the leg completes (even exactly at the crash
        instant — completed work is completed), the deadline fires
        (``WaitTimeout``, the transient-fallback path), or the domain
        dies — the in-flight child is cancelled via the engine's
        interrupt machinery (its ``finally`` blocks release every held
        slot) and a typed :class:`~repro.faults.DomainCrashed` surfaces
        for rescue. A leg dispatched to an *already*-crashed,
        not-yet-detected domain fails fast at zero cost: the surprise
        link-down is observed before any deadline budget burns.
        """
        if crash_ev is None:
            result = yield from with_timeout(self.sim, op, deadline_s,
                                             what=what)
            return result
        if crash_ev.triggered:
            op.close()
            exc = DomainCrashed(target, self.domains.crashed_at[target])
            exc.inflight = False
            raise exc
        proc = self.sim.spawn(shielded(op), name=f"leg:{what}")
        waiters = [proc]
        deadline = None
        if deadline_s is not None:
            deadline = self.sim.timeout(deadline_s)
            waiters.append(deadline)
        waiters.append(crash_ev)
        yield AnyOf(self.sim, waiters)
        if proc.triggered:
            if deadline is not None:
                deadline.cancel()
            ok, value = proc.value
            if not ok:
                raise value
            return value
        if crash_ev.triggered:
            if deadline is not None:
                deadline.cancel()
            if proc.is_alive:
                proc.interrupt(f"domain {target} crashed")
            exc = DomainCrashed(target, self.domains.crashed_at[target])
            exc.inflight = True
            raise exc
        if proc.is_alive:
            proc.interrupt(f"deadline {deadline_s} s exceeded")
        raise WaitTimeout(
            f"{what or 'operation'} exceeded its {deadline_s} s deadline"
        )

    def _rescue_accounting(
        self,
        exc: DomainCrashed,
        target: str,
        span_start: float,
        attempt: ActiveSpan,
        sctx: SpanContext,
        state: Optional[_RequestState],
        phases: PhaseAccumulator,
        probe: bool,
        count: int,
    ) -> float:
        """Book one drained (or failed-fast) leg and gate the rescue.

        Abandons the attempt subtree, re-bills the burned interval to
        the recovery phase (carrying the already-burned latency, exactly
        like the deadline-fallback path), feeds the crash observation to
        the domain manager's detection escalation, and — when the leg is
        past the plan's rescue deadline — raises
        :class:`~repro.faults.RescueAbandoned` instead of letting the
        caller resubmit. Returns the burned seconds."""
        manager = self.domains
        rid = state.request_id if state is not None else -1
        burned = self.sim.now - span_start
        if self.control is not None:
            self.control.record(target, False, burned, probe=probe)
        manager.observe_crash_failure(
            target, rid, count, getattr(exc, "inflight", True)
        )
        self._note(
            "drain", target, site="domain", request_id=rid,
            detail=type(exc).__name__,
        )
        self.telemetry.end(attempt, error=type(exc).__name__)
        self.telemetry.mark_abandoned(attempt)
        if burned:
            phases.add(PHASE_RECOVERY, burned)
            self.telemetry.add(
                "recovery", PHASE_RECOVERY, start=span_start,
                end=self.sim.now, actor=target, parent=sctx.parent_id,
                request_id=sctx.request_id, phase=PHASE_RECOVERY,
                cause=type(exc).__name__,
            )
        if manager.past_rescue_deadline(burned):
            manager.on_rescue_abandoned(target, rid, burned, count)
            raise RescueAbandoned(target, burned)
        return burned

    def _leg_transfer(
        self,
        src: str,
        dst: str,
        nbytes: int,
        count: int,
        state: Optional[_RequestState],
        ctx: Optional[SpanContext],
    ) -> Generator:
        """One DMA moving ``count`` member payloads of ``nbytes`` each as
        one chained submission. When an endpoint is host memory ('root')
        the payload also pays a DRAM staging pass over the total — the
        cost :meth:`transfer_estimate` prices."""
        nbytes *= count
        dma = self.dma.transfer(
            src, dst, nbytes,
            on_retry=self._retry_cb(state, "dma", f"{src}->{dst}"),
            ctx=ctx, descriptors=count,
        )
        if src != "root" and dst != "root":
            return dma
        return self._host_staged(dma, nbytes, ctx)

    def _host_staged(
        self, dma: Generator, nbytes: int, ctx: Optional[SpanContext]
    ) -> Generator:
        """``dma``, then its ``nbytes`` DRAM staging pass in host memory."""
        yield from dma
        span = (
            ctx.begin("host-staging", "staging", actor="root", bytes=nbytes)
            if ctx is not None
            else None
        )
        try:
            yield self.sim.timeout(nbytes / HOST_STAGING_BYTES_PER_S)
        except BaseException:
            if span is not None:
                ctx.end(span, abandoned=True)
            raise
        if span is not None:
            ctx.end(span)

    def transfer_estimate(self, src: str, dst: str, nbytes: int) -> float:
        """Contention-free estimate of one DMA leg, including the host
        DRAM-staging pass when an endpoint is host memory. Pure — used
        by the backend planner's cost models, never by execution."""
        est = self.dma.unloaded_latency(src, dst, nbytes)
        if src == "root" or dst == "root":
            est += nbytes / HOST_STAGING_BYTES_PER_S
        return est

    def _drx_restructure(
        self,
        drx: DRXDevice,
        fused,
        count: int,
        state: Optional[_RequestState],
        ctx: Optional[SpanContext] = None,
    ) -> Generator:
        """One DRX job for ``count`` member payloads (one amortized
        program load), guarded at the "drx" injection site when
        faulted."""
        op = drx.restructure(fused, ctx=ctx, count=count)
        if self.injector is None:
            return op
        return self.injector.guard(
            "drx", op, actor=drx.name,
            request_id=state.request_id if state is not None else -1,
        )

    def _cpu_restructure(
        self, profile, threads: int, count: int
    ) -> Generator:
        """Back-to-back host restructuring of each member payload (the
        CPU has no program-load overhead to amortize)."""
        for _ in range(count):
            yield from self.cpu.restructure(profile, threads=threads)

    def _multi_axl_motion(
        self,
        src: str,
        dst: str,
        stage: MotionStage,
        threads: int,
        count: int,
        phases: PhaseAccumulator,
        state: Optional[_RequestState],
        ctx: SpanContext,
    ) -> Generator:
        """Restructure on the host CPU, staging through host memory —
        the Multi-Axl baseline path, doubling as the degraded path for
        requests whose DRX budget ran out."""
        span, cctx = self._phase_span(
            ctx, "movement-in", PHASE_MOVEMENT, count=count
        )
        yield from self._timed(
            phases, PHASE_MOVEMENT,
            self._leg_transfer(
                src, "root", stage.input_bytes, count, state, cctx
            ),
            span=span,
        )
        span, _ = self._phase_span(
            ctx, "cpu-restructure", PHASE_RESTRUCTURE, actor="cpu",
            threads=threads, count=count,
        )
        yield from self._timed(
            phases, PHASE_RESTRUCTURE,
            self._cpu_restructure(stage.profile, threads, count),
            span=span,
        )
        span, cctx = self._phase_span(
            ctx, "movement-out", PHASE_MOVEMENT, count=count
        )
        yield from self._timed(
            phases, PHASE_MOVEMENT,
            self._leg_transfer(
                "root", dst, stage.output_bytes, count, state, cctx
            ),
            span=span,
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

    def _overlapped(
        self,
        phases: PhaseAccumulator,
        pspan: ActiveSpan,
        move_op: Generator,
        work_op: Generator,
    ) -> Generator:
        """Run a leg's data movement and its restructuring side by side
        (line-rate processing, no store-and-forward) and book the joint
        interval to the restructuring phase, closing the phase span
        ``pspan``. The switch-integrated DRX and the XDMA backend share
        this leg shape."""
        if self._faults is not None:
            # Shield the children: an injected fault must surface here
            # (for fallback), not trip the engine's strict mode.
            move_op, work_op = shielded(move_op), shielded(work_op)
        procs = (self.sim.spawn(move_op), self.sim.spawn(work_op))
        start = self.sim.now
        try:
            yield AllOf(self.sim, procs)
        except BaseException:
            self.telemetry.end(pspan, abandoned=True)
            if self.domains is not None:
                # A drained leg must not leave orphan children holding
                # the dead domain's device slot past the crash instant:
                # cancel them too (their ``finally`` blocks release what
                # they hold).
                for proc in procs:
                    if proc.is_alive:
                        proc.interrupt("leg cancelled")
            raise
        phases.add(PHASE_RESTRUCTURE, self.sim.now - start)
        self.telemetry.end(pspan)
        if self._faults is not None:
            for proc in procs:
                ok, value = proc.value
                if not ok:
                    raise value

    def _drx_motion(
        self,
        mode: Mode,
        src: str,
        dst: str,
        staging: str,
        drx: DRXDevice,
        stage: MotionStage,
        fused,
        count: int,
        phases: PhaseAccumulator,
        state: Optional[_RequestState],
        ctx: SpanContext,
    ) -> Generator:
        """The DRX leg of one motion stage: ingest, restructure, notify,
        deliver — each one chained submission for all ``count`` member
        payloads. Under a :class:`FaultPlan` this runs as a child process
        racing the DRX deadline budget."""
        if mode == Mode.PCIE_INTEGRATED:
            # Switch-integrated DRX processes data *as it streams through
            # the switch* (line-rate processing, no store-and-forward):
            # the inbound transfer and the restructuring overlap.
            pspan, pctx = self._phase_span(
                ctx, "restructure", PHASE_RESTRUCTURE, actor=drx.name,
                overlapped=True, count=count,
            )
            nbytes = count * stage.input_bytes
            yield from self._overlapped(
                phases, pspan,
                self.telemetry.wrap(
                    self.fabric.transfer(src, staging, nbytes),
                    "ingest", "ingest", actor=staging, parent=pspan,
                    request_id=ctx.request_id, bytes=nbytes,
                ),
                self._drx_restructure(drx, fused, count, state, ctx=pctx),
            )
        else:
            span, cctx = self._phase_span(
                ctx, "movement-in", PHASE_MOVEMENT, count=count
            )
            yield from self._timed(
                phases, PHASE_MOVEMENT,
                self._leg_transfer(
                    src, staging, stage.input_bytes, count, state, cctx
                ),
                span=span,
            )
            span, cctx = self._phase_span(
                ctx, "restructure", PHASE_RESTRUCTURE, actor=drx.name,
                count=count,
            )
            yield from self._timed(
                phases, PHASE_RESTRUCTURE,
                self._drx_restructure(drx, fused, count, state, cctx),
                span=span,
            )
        # Restructure-completion notification + P2P DMA to the consumer
        # (Fig. 10 steps 8-9). A batch raises ONE interrupt; the driver
        # reaps the remaining member completions inside that ISR.
        span, cctx = self._phase_span(ctx, "control", PHASE_CONTROL, count=count)
        yield from self._timed(
            phases, PHASE_CONTROL,
            self.notifier.notify(
                drx.name,
                on_retry=self._retry_cb(state, "notify", drx.name),
                ctx=cctx, count=count,
            ),
            span=span,
        )
        span, cctx = self._phase_span(
            ctx, "movement-out", PHASE_MOVEMENT, count=count
        )
        yield from self._timed(
            phases, PHASE_MOVEMENT,
            self._leg_transfer(
                staging, dst, stage.output_bytes, count, state, cctx
            ),
            span=span,
        )

    def _motion(
        self,
        app_index: int,
        kernel_index: int,
        stage: MotionStage,
        count: int,
        phases: PhaseAccumulator,
        state: Optional[_RequestState],
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
        mspan = rctx.begin(
            f"motion{kernel_index}", "stage", src=src, dst=dst,
            **batch_attrs(count),
        )
        sctx = rctx.child(mspan)
        try:
            yield from self._motion_body(
                mode, app_index, src, dst, stage, threads, count, phases,
                state, sctx, mspan, force_cpu,
            )
        except BaseException:
            self.telemetry.end(mspan, abandoned=True)
            raise
        self.telemetry.end(mspan)

    def _motion_body(
        self,
        mode: Mode,
        app_index: int,
        src: str,
        dst: str,
        stage: MotionStage,
        threads: int,
        count: int,
        phases: PhaseAccumulator,
        state: Optional[_RequestState],
        sctx: SpanContext,
        mspan: ActiveSpan,
        force_cpu: bool,
    ) -> Generator:
        if mode == Mode.ALL_CPU:
            # Data already lives in host memory; only the computation.
            span, _ = self._phase_span(
                sctx, "cpu-restructure", PHASE_RESTRUCTURE, actor="cpu",
                threads=threads, count=count,
            )
            yield from self._timed(
                phases, PHASE_RESTRUCTURE,
                self._cpu_restructure(stage.profile, threads, count),
                span=span,
            )
            return

        # Kernel-completion notification + DMA setup (control plane).
        # ONE notification covers a whole batch: its kernels were
        # submitted as one chain, so the device raises one interrupt with
        # ``count`` completion records behind it.
        span, cctx = self._phase_span(
            sctx, "control", PHASE_CONTROL, count=count
        )
        yield from self._timed(
            phases, PHASE_CONTROL,
            self.notifier.notify(
                src, on_retry=self._retry_cb(state, "notify", src), ctx=cctx,
                count=count,
            ),
            span=span,
        )

        if mode == Mode.MULTI_AXL:
            yield from self._multi_axl_motion(
                src, dst, stage, threads, count, phases, state, sctx
            )
            return

        router = self.router
        backend, leg, probe = router.route(
            app_index, src, dst, stage, count, state, mspan, force_cpu
        )
        if backend is router.cpu:
            # The CPU path is never breaker-gated or deadline-raced: it
            # IS the fallback. A leg routed here burns no DRX deadline.
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
        state: Optional[_RequestState],
        sctx: SpanContext,
    ) -> Generator:
        """Run one accelerator ``leg`` on ``backend`` under the recovery
        plane; returns ``"done"``, ``"fell_back"`` or ``"rescued"``.

        Fault-free, crash-free runs execute the leg directly. Otherwise
        it runs under the request's deadline budget (one per member) and,
        when the target's failure domain has a crash scheduled, races the
        crash broadcast too. Past the deadline, or on any recoverable
        failure, the leg falls back to the router's CPU backend (host
        restructuring via host memory); a crashed domain's leg is drained
        and rescued there exactly once, carrying the burned latency. A
        batch degrades as a unit — no member is lost.
        """
        target = backend.target(leg)
        site = backend.kind
        count = leg.count
        crash_ev = (
            self.domains.watch(target) if self.domains is not None else None
        )
        if self._faults is None and crash_ev is None:
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
            self._faults.drx_deadline_s * count
            if self._faults is not None
            else None
        )
        attempt = sctx.begin(
            f"{site}-attempt", "attempt", deadline_s=deadline_s,
            **batch_attrs(count),
            **({"breaker_probe": True} if probe else {}),
        )
        rid = state.request_id if state is not None else -1
        try:
            yield from self._leg_race(
                backend.execute(leg, local, state, sctx.child(attempt)),
                deadline_s, crash_ev, target, what=f"{site}:{target}",
            )
        except DomainCrashed as exc:
            burned = self._rescue_accounting(
                exc, target, span_start, attempt, sctx, state, phases,
                probe, count,
            )
            yield from self.router.cpu.execute(leg, phases, state, sctx)
            if state is not None:
                state.rescued = True
            self.domains.on_rescue(target, rid, burned, count)
            return "rescued"
        except _RECOVERABLE as exc:
            if self.control is not None:
                self.control.record(
                    target, False, self.sim.now - span_start, probe=probe
                )
            if state is not None:
                state.fell_back = True
            self._note(
                "fallback", target, site=site, request_id=rid,
                detail=type(exc).__name__,
            )
            # The whole attempt subtree is dead time: abandon it (phase
            # spans under it stop counting toward phase totals) and
            # re-bill the interval to the recovery phase, exactly as the
            # accumulator does.
            self.telemetry.end(attempt, error=type(exc).__name__)
            self.telemetry.mark_abandoned(attempt)
            phases.add(PHASE_RECOVERY, self.sim.now - span_start)
            self.telemetry.add(
                "recovery", PHASE_RECOVERY, start=span_start,
                end=self.sim.now, actor=target,
                parent=sctx.parent_id, request_id=sctx.request_id,
                phase=PHASE_RECOVERY, cause=type(exc).__name__,
            )
            yield from self.router.cpu.execute(leg, phases, state, sctx)
            return "fell_back"
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
        plan = self._faults
        yield from retry(
            self.sim,
            lambda: self.injector.guard(
                "kernel", device.execute(),
                actor=device.name, request_id=state.request_id,
            ),
            plan.kernel_retry,
            timeout_s=plan.kernel_timeout_s,
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
                            span, _ = self._phase_span(
                                mctx, f"kernel{kernel_index}", PHASE_KERNEL,
                                actor="cpu", threads=threads,
                            )
                            yield from self._timed(
                                phases, PHASE_KERNEL,
                                self.cpu.run_kernel(
                                    stage.cpu_latency(threads),
                                    threads=threads,
                                ),
                                span=span,
                            )
                    else:
                        device = self.accel_devices[
                            self.accel_name(app_index, kernel_index)
                        ]
                        for st, _, mctx in members:
                            span, _ = self._phase_span(
                                mctx, f"kernel{kernel_index}", PHASE_KERNEL,
                                actor=device.name,
                            )
                            if self._faults is None:
                                yield from self._timed(
                                    phases, PHASE_KERNEL, device.execute(),
                                    span=span,
                                )
                            else:
                                yield from self._timed(
                                    phases, PHASE_KERNEL,
                                    self._recovering_kernel(device, st),
                                    span=span,
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
        if self._metrics_recorded or not self.telemetry.enabled:
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
