"""Intel-DSA-style streaming-engine backend.

Models the on-chip Data Streaming Accelerator characterized in *A
Quantitative Analysis of Data Streaming Accelerator* (PAPERS.md): a
small pool of engines fed through a **shared work queue**. Submission is
an ENQCMD portal write from the issuing core (no ioctl, no doorbell
ring), extra jobs ride in a **batch descriptor** at a much cheaper
per-member rate, and completion is discovered by **polling the
completion record on-core** — no interrupt, no ISR. That control path is
roughly 4x cheaper than the DRX's kernel-launch + completion-interrupt
pair, which is exactly why DSA wins small payloads: the fixed overheads
dominate there and DSA's are the smallest of any offload.

The engine itself is modest — it streams through host memory at a fixed
move rate with a scalar-ish transform rate (no 128-lane restructuring
array, no scratchpad fusion), so on large or compute-heavy transforms
the DRX's lanes win back everything the cheap control path saved. Data
also stages through host DRAM on both sides (the DSA sits beside the
memory controller, not on the PCIe fabric), so its movement cost equals
the Multi-Axl staging path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from ..core.system import PHASE_CONTROL, PHASE_MOVEMENT, PHASE_RESTRUCTURE
from ..profiles import WorkProfile
from ..sim import ServerDevice, Simulator
from .base import (
    BACKEND_DSA,
    LegSpec,
    RestructureBackend,
    UnloadedCost,
    leg_transfer,
    transfer_estimate,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import SpanContext

__all__ = ["DSAConfig", "DSADevice", "DSABackend"]

#: Per-busy-core active power (mirrors EnergyParams.cpu_core_active_w) —
#: prices the submission/poll core time in the energy estimate.
_CPU_CORE_ACTIVE_W = 10.5


@dataclass(frozen=True)
class DSAConfig:
    """Timing parameters for the DSA-style engine (seconds / B/s).

    Defaults follow the published characterization's shape: sub-µs
    ENQCMD submission, ~25x cheaper descriptors inside a batch, ~20 GB/s
    streaming per engine, and completion-record polling costing well
    under one ISR.
    """

    engines: int = 2
    portal_submit_s: float = 0.25e-6  # ENQCMD non-posted write round-trip
    descriptor_s: float = 0.1e-6  # descriptor prep in host memory
    batch_descriptor_s: float = 0.04e-6  # per extra member in a batch desc.
    completion_poll_s: float = 0.6e-6  # spin on the completion record
    poll_reap_s: float = 0.15e-6  # each extra record reaped in the spin
    move_bandwidth: float = 20e9  # streamed B/s through one engine
    transform_ops_per_s: float = 16e9  # transform ALU rate
    power_w: float = 4.0  # engine power while streaming

    def __post_init__(self) -> None:
        for name in ("engines", "move_bandwidth", "transform_ops_per_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive (not NaN)")
        for name in ("portal_submit_s", "descriptor_s", "batch_descriptor_s",
                     "completion_poll_s", "poll_reap_s"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative (not NaN)")

    def job_time(self, profile: WorkProfile) -> float:
        """One member's engine occupancy: stream-vs-transform roofline."""
        move = profile.total_bytes / self.move_bandwidth
        transform = profile.total_ops / self.transform_ops_per_s
        return max(move, transform)

    def submit_time(self, count: int) -> float:
        """Portal write + descriptors for a ``count``-member submission."""
        return (
            self.portal_submit_s
            + self.descriptor_s
            + (count - 1) * self.batch_descriptor_s
        )

    def poll_time(self, count: int) -> float:
        """On-core completion-record polling for ``count`` members."""
        return self.completion_poll_s + (count - 1) * self.poll_reap_s


class DSADevice(ServerDevice):
    """DES occupancy model of the shared-work-queue engine pool.

    ``capacity=engines``: submissions from concurrent chains share the
    queue and grab whichever engine frees first — the shared-WQ
    contention the characterization paper measures.
    """

    category = "dsa"

    def __init__(
        self,
        sim: Simulator,
        config: DSAConfig = DSAConfig(),
        name: str = "dsa",
    ):
        super().__init__(sim, capacity=config.engines, name=name)
        self.config = config

    def process(
        self,
        profile: WorkProfile,
        ctx: "SpanContext",
        count: int = 1,
    ) -> Generator:
        """Process: one (possibly batched) submission's engine occupancy."""
        return self._occupy(count * self.config.job_time(profile), count, ctx)


class DSABackend(RestructureBackend):
    """Stage through host memory, restructure on the DSA engine pool."""

    kind = BACKEND_DSA

    def __init__(self, system, config: DSAConfig, queue_weight: float = 1.0):
        super().__init__(system, queue_weight)
        self.config = config
        self.device = DSADevice(system.sim, config, name="dsa")

    def queue_depth(self, leg: LegSpec) -> int:
        return self.device.queue_depth

    def unloaded(self, leg: LegSpec) -> UnloadedCost:
        """``leg``'s price on idle engines: a function of the leg alone."""
        s = self.system
        cfg = self.config
        n = leg.count
        per_job = cfg.job_time(leg.fused)
        work = n * per_job
        host = cfg.submit_time(n) + cfg.poll_time(n)
        in_est = transfer_estimate(
            s.dma, leg.src, "root", n * leg.stage.input_bytes
        )
        out_est = transfer_estimate(
            s.dma, "root", leg.dst, n * leg.stage.output_bytes
        )
        return UnloadedCost(
            service_s=in_est + host + work + out_est,
            energy_j=work * cfg.power_w + host * _CPU_CORE_ACTIVE_W,
            per_job_s=per_job,
        )

    def queue_s(self, depth: int, per_job_s: float) -> float:
        """Expected wait behind ``depth`` jobs on the shared work queue."""
        return depth / self.config.engines * per_job_s * self.queue_weight

    def execute(self, leg, phases, state, ctx) -> Generator:
        s = self.system
        n = leg.count
        name = self.device.name
        with s._phase(
            phases, ctx, "movement-in", PHASE_MOVEMENT, count=n
        ) as cctx:
            yield from leg_transfer(
                s, leg.src, "root", leg.stage.input_bytes, n, state, cctx
            )
        # ENQCMD portal submission from the issuing core.
        with s._phase(
            phases, ctx, "dsa-submit", PHASE_CONTROL, actor=name, count=n
        ):
            yield from s.cpu.charge(self.config.submit_time(n))
        with s._phase(
            phases, ctx, "restructure", PHASE_RESTRUCTURE, actor=name,
            count=n,
        ) as cctx:
            yield from s._guard(
                "dsa", self.device.process(leg.fused, cctx, n), name, state
            )
        # Completion-record polling on-core — the no-interrupt path.
        with s._phase(
            phases, ctx, "dsa-poll", PHASE_CONTROL, actor=name, count=n
        ):
            yield from s.cpu.charge(self.config.poll_time(n))
        with s._phase(
            phases, ctx, "movement-out", PHASE_MOVEMENT, count=n
        ) as cctx:
            yield from leg_transfer(
                s, "root", leg.dst, leg.stage.output_bytes, n, state, cctx
            )
