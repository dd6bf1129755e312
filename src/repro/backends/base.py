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
* **run it** — :meth:`RestructureBackend.execute` delegates to the
  owning :class:`~repro.core.system.DMXSystem`'s motion helpers so
  span/phase accounting stays identical to the non-planned paths.

Estimates are pure functions of the leg and the current DES state: no
randomness, no clock advancement — a planner consultation costs zero
simulated time and two equal-seed runs score identically.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Generator, Optional, Tuple

from ..core.chain import MotionStage
from ..core.placement import Mode
from ..profiles import WorkProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.system import DMXSystem, PhaseAccumulator, _RequestState
    from ..drx.microarch import DRXDevice
    from ..telemetry import SpanContext

__all__ = [
    "BACKEND_DRX", "BACKEND_CPU", "BACKEND_DSA", "BACKEND_XDMA",
    "BACKEND_KINDS", "LegSpec", "CostEstimate", "UnloadedCost",
    "RestructureBackend", "DRXBackend", "CPUBackend", "PricedLeg",
    "PriceMemo",
]

BACKEND_DRX = "drx"
BACKEND_CPU = "cpu"
BACKEND_DSA = "dsa"
BACKEND_XDMA = "xdma"

#: Every backend kind, in the planner's deterministic evaluation order.
BACKEND_KINDS = (BACKEND_XDMA, BACKEND_DSA, BACKEND_DRX, BACKEND_CPU)


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
        out_est = s.transfer_estimate(
            leg.staging, leg.dst, n * leg.stage.output_bytes
        ) + chain_extra
        if leg.mode is Mode.PCIE_INTEGRATED:
            # Line-rate processing: ingest overlaps the restructuring.
            ingest = s.fabric.unloaded_latency(
                leg.src, leg.staging, n * leg.stage.input_bytes
            )
            service = max(ingest, restructure) + notify + out_est
        else:
            in_est = s.transfer_estimate(
                leg.src, leg.staging, n * leg.stage.input_bytes
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
        return self.system._drx_motion(
            leg.mode, leg.src, leg.dst, leg.staging, leg.drx, leg.stage,
            leg.fused, leg.count, phases, state, ctx,
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
        in_est = s.transfer_estimate(
            leg.src, "root", n * leg.stage.input_bytes
        )
        out_est = s.transfer_estimate(
            "root", leg.dst, n * leg.stage.output_bytes
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
        return self.system._multi_axl_motion(
            leg.src, leg.dst, leg.stage, leg.threads, leg.count, phases,
            state, ctx,
        )


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
