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
from typing import TYPE_CHECKING, Generator, Optional

from ..core.chain import MotionStage
from ..sim import Server, Simulator
from ..telemetry.spans import batch_attrs
from .base import BACKEND_XDMA, LegSpec, RestructureBackend, UnloadedCost

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
        if self.channels <= 0:
            raise ValueError("channels must be positive")
        if self.transform_bandwidth <= 0:
            raise ValueError("transform_bandwidth must be positive")
        if self.program_s < 0 or self.member_program_s < 0:
            raise ValueError("programming costs must be non-negative")
        if self.max_payload_bytes <= 0:
            raise ValueError("max_payload_bytes must be positive")

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


class XDMADevice:
    """DES occupancy model of the transforming-DMA channel pool."""

    def __init__(
        self,
        sim: Simulator,
        config: XDMAConfig = XDMAConfig(),
        name: str = "xdma",
    ):
        self.sim = sim
        self.config = config
        self.name = name
        self._server = Server(sim, capacity=config.channels, name=name)
        self.jobs_completed = 0
        self.busy_seconds = 0.0

    @property
    def queue_depth(self) -> int:
        return self._server.queue_length + self._server.in_use

    def transform(
        self,
        nbytes: int,
        count: int = 1,
        ctx: Optional["SpanContext"] = None,
    ) -> Generator:
        """Process: hold one channel while ``nbytes`` stream through the
        transform unit."""
        duration = self.config.transform_time(nbytes)
        start = self.sim.now
        span = (
            ctx.begin(
                self.name, "xdma", actor=self.name, service_s=duration,
                bytes=nbytes, **batch_attrs(count),
            )
            if ctx is not None
            else None
        )
        try:
            yield from self._server.transfer(duration)
        except BaseException as exc:
            if span is not None:
                ctx.end(span, abandoned=True, error=type(exc).__name__)
            raise
        self.jobs_completed += count
        self.busy_seconds += duration
        elapsed = self.sim.now - start
        if span is not None:
            ctx.end(span, queued_s=elapsed - duration)
        return elapsed

    def utilization(self) -> float:
        return self._server.utilization()


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

    def _host_work(self, cost: float) -> Generator:
        yield self.system.sim.timeout(cost)
        self.system.cpu.busy_seconds += cost

    def _guarded_transform(self, leg: LegSpec, state, ctx) -> Generator:
        s = self.system
        op = self.device.transform(
            leg.count * leg.stage.input_bytes, count=leg.count, ctx=ctx
        )
        if s.injector is None:
            return op
        return s.injector.guard(
            "xdma", op, actor=self.device.name,
            request_id=state.request_id if state is not None else -1,
        )

    def execute(self, leg, phases, state, ctx) -> Generator:
        from ..core import system as _sys

        s = self.system
        n = leg.count
        # Descriptor programming on the host (control plane).
        span, _ = s._phase_span(
            ctx, "xdma-program", _sys.PHASE_CONTROL, actor=self.device.name,
            count=n,
        )
        yield from s._timed(
            phases, _sys.PHASE_CONTROL,
            self._host_work(self.config.program_time(n)), span=span,
        )
        # The fused leg: the direct crossing and the in-flight transform
        # overlap — all of it books as restructuring, because there is no
        # separate movement hop to bill (the zero-hop story).
        pspan, pctx = s._phase_span(
            ctx, "restructure", _sys.PHASE_RESTRUCTURE,
            actor=self.device.name, overlapped=True, fused_dma=True,
            count=n,
        )
        yield from s._overlapped(
            phases, pspan,
            s.dma.transfer(
                leg.src, leg.dst, self._wire_bytes(leg),
                on_retry=s._retry_cb(state, "dma", f"{leg.src}->{leg.dst}"),
                ctx=pctx, descriptors=n,
            ),
            self._guarded_transform(leg, state, pctx),
        )
