"""The restructuring-backend interface the per-leg planner scores.

A *backend* is one way to execute the restructuring half of a motion
stage — the existing DRX units and host-CPU path, plus the two engines
modeled from the related work: an Intel-DSA-style on-chip streaming
engine (shared work queue, descriptor batching, on-core completion
polling) and XDMA-style layout transformation fused into the DMA
descriptor itself (restructuring in-flight, no separate accelerator
hop).

Every backend answers the same three questions about one
:class:`LegSpec` (a motion stage bound to concrete endpoints):

* **can it run this leg at all?** — :meth:`RestructureBackend.eligible`
  (XDMA only expresses affine layout transforms; everything else is
  universal);
* **what would it cost right now?** — :meth:`RestructureBackend.estimate`
  returns a :class:`CostEstimate` splitting contention-free service time
  from the expected queueing behind the backend's *current* occupancy
  (the live signal the planner keys on). Every backend builds it from
  an :class:`UnloadedCost` (:meth:`RestructureBackend.unloaded`) that
  depends on the leg alone, plus a queue term over the live depth
  (:meth:`RestructureBackend.queue_s`), so a caller that prices the
  same leg repeatedly keeps the first half — :class:`PriceMemo` is that
  memo, shared by the planner and the controller's tier cost model;
* **run it** — :meth:`RestructureBackend.execute` runs the leg's
  timed steps, each a :class:`~repro.core.system.DMXSystem` phase step,
  in the class that prices them. The steps several legs share are the
  module functions :func:`leg_transfer` (priced by
  :func:`transfer_estimate`) and :func:`overlapped`.

Estimates are pure functions of the leg and the current DES state: no
randomness, no clock advancement — a planner consultation costs zero
simulated time and two equal-seed runs score identically.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Generator, Optional, Tuple

from ..core.chain import MotionStage
from ..core.placement import Mode
from ..core.system import PHASE_CONTROL, PHASE_MOVEMENT, PHASE_RESTRUCTURE
from ..faults.recovery import shielded
from ..interconnect.dma import ROUTE_NAMES
from ..profiles import WorkProfile
from ..sim import AllOf, PhaseAccumulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.system import DMXSystem, _PhaseStep, _RequestState
    from ..drx.microarch import DRXDevice
    from ..interconnect import DMAEngine
    from ..telemetry import SpanContext

__all__ = [
    "BACKEND_DRX", "BACKEND_CPU", "BACKEND_DSA", "BACKEND_XDMA",
    "BACKEND_KINDS", "LegSpec", "CostEstimate", "UnloadedCost",
    "RestructureBackend", "DRXBackend", "CPUBackend", "PricedLeg",
    "PriceMemo", "leg_transfer", "transfer_estimate", "overlapped",
]

BACKEND_DRX = "drx"
BACKEND_CPU = "cpu"
BACKEND_DSA = "dsa"
BACKEND_XDMA = "xdma"

#: Every backend kind, in the planner's deterministic evaluation order.
BACKEND_KINDS = (BACKEND_XDMA, BACKEND_DSA, BACKEND_DRX, BACKEND_CPU)

# Transfers that stage through host memory (Multi-Axl and Integrated-DRX
# paths) pay a DRAM store on the way in and a load on the way out, on
# top of the PCIe crossing. Effective host DMA-staging bandwidth:
HOST_STAGING_BYTES_PER_S = 25e9


def leg_transfer(
    system: "DMXSystem", src: str, dst: str, nbytes: int, count: int,
    state: "_RequestState", ctx: "SpanContext",
) -> Generator:
    """One DMA moving ``count`` member payloads of ``nbytes`` each as
    one chained submission. When an endpoint is host memory ('root')
    the payload also pays a DRAM staging pass over the total — the
    cost :func:`transfer_estimate` prices."""
    nbytes *= count
    dma = system.dma.transfer(
        src, dst, nbytes,
        on_retry=system._retry_cb(state, "dma", ROUTE_NAMES[src, dst]),
        ctx=ctx, descriptors=count,
    )
    if src != "root" and dst != "root":
        return dma
    return _host_staged(dma, nbytes, ctx)


def _host_staged(dma: Generator, nbytes: int, ctx: "SpanContext") -> Generator:
    """``dma``, then its ``nbytes`` DRAM staging pass in host memory."""
    yield from dma
    with ctx.step(
        "host-staging", "staging", "root", errors=False, bytes=nbytes
    ):
        yield ctx.telemetry.sim.timeout(nbytes / HOST_STAGING_BYTES_PER_S)


def transfer_estimate(
    dma: "DMAEngine", src: str, dst: str, nbytes: int
) -> float:
    """Contention-free estimate of one DMA leg, including the host
    DRAM-staging pass when an endpoint is host memory. Pure — used
    by the backends' prices, never by execution."""
    est = dma.unloaded_latency(src, dst, nbytes)
    if src == "root" or dst == "root":
        est += nbytes / HOST_STAGING_BYTES_PER_S
    return est


def overlapped(
    system: "DMXSystem", step: "_PhaseStep",
    move: Callable[["SpanContext"], Generator],
    work: Callable[["SpanContext"], Generator],
) -> Generator:
    """Run a leg's data movement and its restructuring side by side
    (line-rate processing, no store-and-forward) as one phase
    ``step`` (made, so opened, by the caller): ``move`` and ``work``
    build the two operations under the step's span, and the joint
    interval books to the step's phase. The switch-integrated DRX
    and the XDMA backend share this leg shape."""
    with step as pctx:
        move_op, work_op = move(pctx), work(pctx)
        if system.injector is not None:
            # Shield the children: an injected fault must surface
            # here (for fallback), not trip the engine's strict mode.
            move_op, work_op = shielded(move_op), shielded(work_op)
        procs = (system.sim.spawn(move_op), system.sim.spawn(work_op))
        try:
            yield AllOf(system.sim, procs)
        except BaseException:
            if system.domains is not None:
                # A drained leg must not leave orphan children
                # holding the dead domain's device slot past the
                # crash instant: cancel them too (their ``finally``
                # blocks release what they hold).
                for proc in procs:
                    if proc.is_alive:
                        proc.interrupt("leg cancelled")
            raise
    # A child's fault surfaces only now, after the step booked the
    # joint interval and closed its span.
    if system.injector is not None:
        for proc in procs:
            ok, value = proc.value
            if not ok:
                raise value


@dataclass(frozen=True)
class LegSpec:
    """One motion stage's restructuring leg, bound to endpoints.

    ``fused`` is the profile the DRX/DSA engines would execute (with
    scratchpad fusion applied); eligibility checks read the *unfused*
    ``stage.profile`` character, which describes the transform itself.
    ``count`` > 1 marks a coalesced batch leg: all members execute on
    the one backend the planner picks (batch members always agree on a
    backend by construction — the decision is per coalesced leg).
    ``drx`` is the DRX unit the leg stages on: the home unit the
    placement mode assigns, or the sibling the static route moved the
    leg to when its home was passed over.
    """

    mode: Mode
    src: str
    dst: str
    staging: str
    stage: MotionStage
    fused: WorkProfile
    threads: int
    count: int = 1
    drx: Optional["DRXDevice"] = None


@dataclass(frozen=True)
class CostEstimate:
    """One backend's priced bid for a leg (seconds).

    ``service_s`` is the contention-free end-to-end leg estimate
    (movement + restructuring + control overheads); ``queue_s`` the
    expected wait behind the backend's current queue depth. The planner
    ranks on ``total_s``.
    """

    service_s: float
    queue_s: float
    depth: int
    #: Estimated energy for the leg (engine + host control time); carried
    #: for attribution/figures — the planner ranks on time, not energy.
    energy_j: float = 0.0

    @property
    def total_s(self) -> float:
        return self.service_s + self.queue_s


@dataclass(frozen=True)
class UnloadedCost:
    """The contention-free half of a :class:`CostEstimate` (seconds).

    ``per_job_s`` is the time one queued job holds the backend: the
    factor the live queue term multiplies the current depth by.
    """

    service_s: float
    energy_j: float
    per_job_s: float


class RestructureBackend(abc.ABC):
    """One way to run a motion stage's restructuring leg."""

    kind: str = ""

    def __init__(self, system: "DMXSystem", queue_weight: float = 1.0):
        self.system = system
        self.queue_weight = queue_weight

    def eligible(self, leg: LegSpec) -> bool:
        """Can this backend execute ``leg`` at all?"""
        return True

    def target(self, leg: LegSpec) -> str:
        """Health/breaker target name for this leg (empty: ungated)."""
        return self.kind

    @abc.abstractmethod
    def queue_depth(self, leg: LegSpec) -> int:
        """Jobs currently occupying + waiting on the backend's resource."""

    @abc.abstractmethod
    def unloaded(self, leg: LegSpec) -> UnloadedCost:
        """``leg``'s price on an idle backend: a function of the leg
        alone (and of configuration fixed at construction)."""

    @abc.abstractmethod
    def queue_s(self, depth: int, per_job_s: float) -> float:
        """Expected wait behind ``depth`` queued jobs of ``per_job_s``."""

    def estimate(self, leg: LegSpec) -> CostEstimate:
        """Price ``leg`` under current contention (pure, zero sim time)."""
        return self.bid(leg, self.unloaded(leg))

    def bid(self, leg: LegSpec, base: UnloadedCost) -> CostEstimate:
        """:meth:`estimate` given ``leg``'s contention-free price
        ``base``: reads only the live queue depth."""
        depth = self.queue_depth(leg)
        return CostEstimate(
            service_s=base.service_s,
            queue_s=self.queue_s(depth, base.per_job_s),
            depth=depth, energy_j=base.energy_j,
        )

    @abc.abstractmethod
    def execute(
        self,
        leg: LegSpec,
        phases: "PhaseAccumulator",
        state: "_RequestState",
        ctx: "SpanContext",
    ) -> Generator:
        """Process: run the leg end to end (movement + restructuring)."""


class DRXBackend(RestructureBackend):
    """The existing DRX path behind the backend interface.

    Estimation and execution both use the leg's unit (``leg.drx``).
    The planner only ever prices a leg at its home unit, so a planner
    restricted to ``{drx, cpu}`` reproduces the static route only while
    every home unit admits traffic.
    """

    kind = BACKEND_DRX

    def eligible(self, leg: LegSpec) -> bool:
        return leg.drx is not None

    def target(self, leg: LegSpec) -> str:
        return leg.drx.name

    def queue_depth(self, leg: LegSpec) -> int:
        return leg.drx.queue_depth

    def unloaded(self, leg: LegSpec) -> UnloadedCost:
        """``leg``'s price on an idle unit: a function of the leg alone."""
        s = self.system
        n = leg.count
        timing = leg.drx.timing
        if n > 1:
            restructure = timing.time_for_profile_batch([leg.fused] * n)
        else:
            restructure = timing.time_for_profile(leg.fused)
        chain_extra = (n - 1) * s.dma.costs.chained_descriptor_s
        notify = s.notifier.costs.interrupt_s
        out_est = transfer_estimate(
            s.dma, leg.staging, leg.dst, n * leg.stage.output_bytes
        ) + chain_extra
        if leg.mode is Mode.PCIE_INTEGRATED:
            # Line-rate processing: ingest overlaps the restructuring.
            ingest = s.fabric.unloaded_latency(
                leg.src, leg.staging, n * leg.stage.input_bytes
            )
            service = max(ingest, restructure) + notify + out_est
        else:
            in_est = transfer_estimate(
                s.dma, leg.src, leg.staging, n * leg.stage.input_bytes
            ) + chain_extra
            service = in_est + restructure + notify + out_est
        return UnloadedCost(
            service_s=service,
            energy_j=restructure * leg.drx.config.power_w,
            per_job_s=timing.time_for_profile(leg.fused),
        )

    def queue_s(self, depth: int, per_job_s: float) -> float:
        """Expected wait behind ``depth`` jobs on the home unit."""
        return depth * per_job_s * self.queue_weight

    def execute(self, leg, phases, state, ctx) -> Generator:
        """The DRX leg of one motion stage: ingest, restructure, notify,
        deliver — each one chained submission for all ``leg.count``
        member payloads. Under a :class:`~repro.faults.FaultPlan` this
        runs as a child process racing the DRX deadline budget."""
        s = self.system
        src, staging, drx, stage = leg.src, leg.staging, leg.drx, leg.stage
        fused, count = leg.fused, leg.count
        if leg.mode is Mode.PCIE_INTEGRATED:
            # Switch-integrated DRX processes data *as it streams through
            # the switch* (line-rate processing, no store-and-forward):
            # the inbound transfer and the restructuring overlap.
            nbytes = count * stage.input_bytes
            yield from overlapped(
                s,
                s._phase(
                    phases, ctx, "restructure", PHASE_RESTRUCTURE,
                    actor=drx.name, count=count, overlapped=True,
                ),
                lambda pctx: s.telemetry.wrap(
                    s.fabric.transfer(src, staging, nbytes),
                    "ingest", "ingest", actor=staging,
                    parent=pctx.parent_id, request_id=pctx.request_id,
                    bytes=nbytes,
                ),
                lambda pctx: s._guard(
                    "drx", drx.restructure(fused, pctx, count), drx.name,
                    state,
                ),
            )
        else:
            with s._phase(
                phases, ctx, "movement-in", PHASE_MOVEMENT, count=count
            ) as cctx:
                yield from leg_transfer(
                    s, src, staging, stage.input_bytes, count, state, cctx
                )
            with s._phase(
                phases, ctx, "restructure", PHASE_RESTRUCTURE,
                actor=drx.name, count=count,
            ) as cctx:
                yield from s._guard(
                    "drx", drx.restructure(fused, cctx, count), drx.name,
                    state,
                )
        # Restructure-completion notification + P2P DMA to the consumer
        # (Fig. 10 steps 8-9). A batch raises ONE interrupt; the driver
        # reaps the remaining member completions inside that ISR.
        with s._phase(
            phases, ctx, "control", PHASE_CONTROL, count=count
        ) as cctx:
            yield from s.notifier.notify(
                drx.name, on_retry=s._retry_cb(state, "notify", drx.name),
                ctx=cctx, count=count,
            )
        with s._phase(
            phases, ctx, "movement-out", PHASE_MOVEMENT, count=count
        ) as cctx:
            yield from leg_transfer(
                s, staging, leg.dst, stage.output_bytes, count, state, cctx
            )


class CPUBackend(RestructureBackend):
    """Host-CPU restructuring via host memory (the Multi-Axl path).

    Always eligible and never breaker-gated: the CPU is the system's
    unconditional fallback, on the static route and the planner alike.
    """

    kind = BACKEND_CPU

    def target(self, leg: LegSpec) -> str:
        return ""

    def queue_depth(self, leg: LegSpec) -> int:
        return self.system.cpu.cores.queue_length

    def unloaded(self, leg: LegSpec) -> UnloadedCost:
        """``leg``'s price on idle cores: a function of the leg alone."""
        s = self.system
        cpu = s.cpu
        n = leg.count
        threads = max(1, min(leg.threads, cpu.max_threads))
        if threads > 1:
            per_job = cpu.parallel_time(leg.stage.profile, threads)
        else:
            per_job = cpu.serial_time(leg.stage.profile)
        in_est = transfer_estimate(
            s.dma, leg.src, "root", n * leg.stage.input_bytes
        )
        out_est = transfer_estimate(
            s.dma, "root", leg.dst, n * leg.stage.output_bytes
        )
        return UnloadedCost(
            service_s=in_est + n * per_job + out_est,
            energy_j=n * per_job * threads * 10.5,  # cpu_core_active_w
            per_job_s=per_job,
        )

    def queue_s(self, depth: int, per_job_s: float) -> float:
        """Expected wait behind ``depth`` jobs spread over the cores."""
        return (
            depth / self.system.cpu.spec.cores * per_job_s * self.queue_weight
        )

    def execute(self, leg, phases, state, ctx) -> Generator:
        return self.motion(
            leg.src, leg.dst, leg.stage, leg.threads, leg.count, phases,
            state, ctx,
        )

    def motion(
        self, src: str, dst: str, stage: MotionStage, threads: int,
        count: int, phases: "PhaseAccumulator", state: "_RequestState",
        ctx: "SpanContext",
    ) -> Generator:
        """Restructure on the host CPU, staging through host memory —
        the Multi-Axl baseline path (which runs it with no leg built),
        doubling as the degraded path for legs whose DRX budget ran
        out."""
        s = self.system
        with s._phase(
            phases, ctx, "movement-in", PHASE_MOVEMENT, count=count
        ) as cctx:
            yield from leg_transfer(
                s, src, "root", stage.input_bytes, count, state, cctx
            )
        with s._phase(
            phases, ctx, "cpu-restructure", PHASE_RESTRUCTURE, actor="cpu",
            count=count, threads=threads,
        ):
            yield from self.restructure(stage.profile, threads, count)
        with s._phase(
            phases, ctx, "movement-out", PHASE_MOVEMENT, count=count
        ) as cctx:
            yield from leg_transfer(
                s, "root", dst, stage.output_bytes, count, state, cctx
            )

    def restructure(
        self, profile: WorkProfile, threads: int, count: int
    ) -> Generator:
        """Back-to-back host restructuring of each member payload (the
        CPU has no program-load overhead to amortize). All-CPU runs this
        step alone as its whole motion stage: its data already lives in
        host memory."""
        cpu = self.system.cpu
        for _ in range(count):
            yield from cpu.restructure(profile, threads=threads)


class PricedLeg:
    """One leg kept for reuse, with each backend's contention-free price
    of it computed on first ask and kept.

    The leg is immutable and the price is a function of the leg and the
    backend's construction-time configuration, so one entry per backend
    never goes stale; :meth:`estimate` then reads only the live depth.
    """

    __slots__ = ("leg", "_unloaded")

    def __init__(self, leg: LegSpec):
        self.leg = leg
        self._unloaded: Dict[RestructureBackend, UnloadedCost] = {}

    def unloaded(self, backend: RestructureBackend) -> UnloadedCost:
        """``backend.unloaded(self.leg)``, computed once."""
        cost = self._unloaded.get(backend)
        if cost is None:
            cost = self._unloaded[backend] = backend.unloaded(self.leg)
        return cost

    def estimate(self, backend: RestructureBackend) -> CostEstimate:
        """Equal to ``backend.estimate(self.leg)``."""
        return backend.bid(self.leg, self.unloaded(backend))


class PriceMemo:
    """The legs a system prices, one :class:`PricedLeg` each.

    A leg is kept per ``(source accelerator, count, DRX unit)``. With
    the placement mode fixed at construction those determine every
    :class:`LegSpec` field: the source names the app and the motion
    stage after it (hence the destination, profile, fused profile and
    CPU threads), and the unit — the home one, or a sibling a rerouted
    leg stages on — names the staging point. The fabric,
    DMA, notifier, CPU and backend configurations that
    :meth:`RestructureBackend.unloaded` also reads are fixed at
    construction too (the scratchpad-fusion ablation switch is only
    flipped between systems). So a lookup hashes a short tuple rather
    than building or hashing a whole :class:`LegSpec`, and a
    ``migrate_app`` that re-homes the app reads — and prices — a
    different entry. Entries are never evicted: there are at most
    (motion stages x batch sizes x DRX units) of them.
    """

    def __init__(self, system: "DMXSystem"):
        self.system = system
        self._legs: Dict[Tuple[str, int, str], PricedLeg] = {}

    def leg(
        self, app_index: int, src: str, dst: str, stage: MotionStage,
        count: int = 1,
        placement: Optional[Tuple["DRXDevice", str]] = None,
    ) -> PricedLeg:
        """The motion ``stage`` from ``src`` to ``dst`` of chain
        ``app_index``, for ``count`` members, at its current home DRX —
        or, given ``placement``, a ``(drx, staging)`` pair, on that unit
        instead (a leg rerouted to a sibling of its home)."""
        system = self.system
        mode = system.config.mode
        drx, staging = placement or system._drx_placement(
            mode, src, app_index
        )
        key = (src, count, drx.name)
        priced = self._legs.get(key)
        if priced is None:
            priced = self._legs[key] = PricedLeg(LegSpec(
                mode=mode, src=src, dst=dst, staging=staging, stage=stage,
                fused=system._fused(stage), threads=stage.cpu_threads,
                count=count, drx=drx,
            ))
        return priced
