"""XDMA-style backend: layout transform fused into the DMA descriptor.

Models the XDMA design (PAPERS.md): the DMA descriptor itself carries an
affine layout-transformation spec, and a small transform unit in the DMA
datapath restructures the stream **in flight** on the direct src → dst
crossing. There is no separate accelerator hop, no staging buffer, and
no completion interrupt beyond the DMA's own — data moves once and
arrives restructured. The whole movement+restructure leg is therefore
the *overlap* of the wire crossing and the transform-unit throughput,
plus a per-descriptor programming cost on the host (encoding the
transform into the descriptor is real work, and — unlike the DRX's
amortized program load — it is paid again for every batch member).

The price of zero-hop is expressibility: the descriptor encodes strided/
affine reshapes only. Gather-heavy, branchy, or compute-rich transforms
don't fit, and the descriptor's address fields bound the payload one
descriptor can cover — :meth:`XDMAConfig.descriptor_expressible` is the
planner's eligibility gate, and what pushes large or irregular legs back
onto the DRX.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from ..core.chain import MotionStage
from ..core.system import PHASE_CONTROL, PHASE_RESTRUCTURE
from ..interconnect.dma import ROUTE_NAMES
from ..sim import ServerDevice, Simulator
from .base import (
    BACKEND_XDMA,
    LegSpec,
    RestructureBackend,
    UnloadedCost,
    overlapped,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import SpanContext

__all__ = ["XDMAConfig", "XDMADevice", "XDMABackend"]

_CPU_CORE_ACTIVE_W = 10.5  # mirrors EnergyParams.cpu_core_active_w


@dataclass(frozen=True)
class XDMAConfig:
    """Timing + expressibility parameters for in-flight transformation."""

    channels: int = 2  # concurrent transforming DMA channels
    program_s: float = 1.2e-6  # encode transform into the descriptor
    member_program_s: float = 0.9e-6  # each extra member's descriptor
    transform_bandwidth: float = 8e9  # B/s through the transform unit
    power_w: float = 3.0  # transform unit while streaming
    # Descriptor expressibility bounds: affine/strided reshapes only.
    max_gather_fraction: float = 0.15
    max_branch_fraction: float = 0.06
    max_ops_per_element: float = 8.0
    max_payload_bytes: int = 16 * 1024 * 1024  # descriptor address reach

    def __post_init__(self) -> None:
        for name in ("channels", "transform_bandwidth", "max_payload_bytes"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive (not NaN)")
        for name in ("program_s", "member_program_s"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative (not NaN)")

    def descriptor_expressible(self, stage: MotionStage) -> bool:
        """Can one descriptor encode this stage's transform?

        Judged on the *unfused* stage profile — the transform's own
        character — and the per-member payload size.
        """
        p = stage.profile
        return (
            p.gather_fraction <= self.max_gather_fraction
            and p.branch_fraction <= self.max_branch_fraction
            and p.ops_per_element <= self.max_ops_per_element
            and stage.input_bytes <= self.max_payload_bytes
        )

    def program_time(self, count: int) -> float:
        """Host descriptor-programming cost for ``count`` members. No
        amortization: every member carries its own transform spec."""
        return self.program_s + (count - 1) * self.member_program_s

    def transform_time(self, nbytes: int) -> float:
        return nbytes / self.transform_bandwidth


class XDMADevice(ServerDevice):
    """DES occupancy model of the transforming-DMA channel pool."""

    category = "xdma"

    def __init__(
        self,
        sim: Simulator,
        config: XDMAConfig = XDMAConfig(),
        name: str = "xdma",
    ):
        super().__init__(sim, capacity=config.channels, name=name)
        self.config = config

    def transform(
        self,
        nbytes: int,
        ctx: "SpanContext",
        count: int = 1,
    ) -> Generator:
        """Process: hold one channel while ``nbytes`` stream through the
        transform unit."""
        return self._occupy(
            self.config.transform_time(nbytes), count, ctx, bytes=nbytes
        )


class XDMABackend(RestructureBackend):
    """Direct src → dst DMA with the transform fused in-flight."""

    kind = BACKEND_XDMA

    def __init__(self, system, config: XDMAConfig, queue_weight: float = 1.0):
        super().__init__(system, queue_weight)
        self.config = config
        self.device = XDMADevice(system.sim, config, name="xdma")

    def eligible(self, leg: LegSpec) -> bool:
        return self.config.descriptor_expressible(leg.stage)

    def queue_depth(self, leg: LegSpec) -> int:
        return self.device.queue_depth

    def _wire_bytes(self, leg: LegSpec) -> int:
        # One crossing carries the stream; the fatter side bounds it.
        return leg.count * max(leg.stage.input_bytes, leg.stage.output_bytes)

    def unloaded(self, leg: LegSpec) -> UnloadedCost:
        """``leg``'s price on idle channels: a function of the leg alone."""
        s = self.system
        cfg = self.config
        n = leg.count
        program = cfg.program_time(n)
        wire = s.dma.unloaded_latency(leg.src, leg.dst, self._wire_bytes(leg))
        wire += (n - 1) * s.dma.costs.chained_descriptor_s
        transform = cfg.transform_time(n * leg.stage.input_bytes)
        return UnloadedCost(
            service_s=program + max(wire, transform),
            energy_j=transform * cfg.power_w + program * _CPU_CORE_ACTIVE_W,
            per_job_s=cfg.transform_time(leg.stage.input_bytes),
        )

    def queue_s(self, depth: int, per_job_s: float) -> float:
        """Expected wait behind ``depth`` streams over the channels."""
        return depth / self.config.channels * per_job_s * self.queue_weight

    def execute(self, leg, phases, state, ctx) -> Generator:
        s = self.system
        src, dst, n = leg.src, leg.dst, leg.count
        device = self.device
        # Descriptor programming on the host (control plane).
        with s._phase(
            phases, ctx, "xdma-program", PHASE_CONTROL, actor=device.name,
            count=n,
        ):
            yield from s.cpu.charge(self.config.program_time(n))
        # The fused leg: the direct crossing and the in-flight transform
        # overlap — all of it books as restructuring, because there is no
        # separate movement hop to bill (the zero-hop story).
        yield from overlapped(
            s,
            s._phase(
                phases, ctx, "restructure", PHASE_RESTRUCTURE,
                actor=device.name, count=n, overlapped=True, fused_dma=True,
            ),
            lambda pctx: s.dma.transfer(
                src, dst, self._wire_bytes(leg),
                on_retry=s._retry_cb(state, "dma", ROUTE_NAMES[src, dst]),
                ctx=pctx, descriptors=n,
            ),
            lambda pctx: s._guard(
                "xdma",
                device.transform(n * leg.stage.input_bytes, pctx, n),
                device.name, state,
            ),
        )
