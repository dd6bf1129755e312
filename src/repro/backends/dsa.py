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
from typing import TYPE_CHECKING, Generator, Optional

from ..profiles import WorkProfile
from ..sim import Server, Simulator
from ..telemetry.spans import batch_attrs
from .base import BACKEND_DSA, LegSpec, RestructureBackend, UnloadedCost

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
        if self.engines <= 0:
            raise ValueError("engines must be positive")
        if self.move_bandwidth <= 0 or self.transform_ops_per_s <= 0:
            raise ValueError("DSA rates must be positive")
        for name in ("portal_submit_s", "descriptor_s", "batch_descriptor_s",
                     "completion_poll_s", "poll_reap_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

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


class DSADevice:
    """DES occupancy model of the shared-work-queue engine pool.

    ``capacity=engines``: submissions from concurrent chains share the
    queue and grab whichever engine frees first — the shared-WQ
    contention the characterization paper measures.
    """

    def __init__(
        self,
        sim: Simulator,
        config: DSAConfig = DSAConfig(),
        name: str = "dsa",
    ):
        self.sim = sim
        self.config = config
        self.name = name
        self._server = Server(sim, capacity=config.engines, name=name)
        self.jobs_completed = 0
        self.busy_seconds = 0.0

    @property
    def queue_depth(self) -> int:
        return self._server.queue_length + self._server.in_use

    def process(
        self,
        profile: WorkProfile,
        count: int = 1,
        ctx: Optional["SpanContext"] = None,
    ) -> Generator:
        """Process: one (possibly batched) submission's engine occupancy."""
        duration = count * self.config.job_time(profile)
        start = self.sim.now
        span = (
            ctx.begin(
                self.name, "dsa", actor=self.name, service_s=duration,
                **batch_attrs(count),
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
        in_est = s.transfer_estimate(
            leg.src, "root", n * leg.stage.input_bytes
        )
        out_est = s.transfer_estimate(
            "root", leg.dst, n * leg.stage.output_bytes
        )
        return UnloadedCost(
            service_s=in_est + host + work + out_est,
            energy_j=work * cfg.power_w + host * _CPU_CORE_ACTIVE_W,
            per_job_s=per_job,
        )

    def queue_s(self, depth: int, per_job_s: float) -> float:
        """Expected wait behind ``depth`` jobs on the shared work queue."""
        return depth / self.config.engines * per_job_s * self.queue_weight

    def _host_work(self, cost: float) -> Generator:
        """Submission/poll core time: wall time + host CPU energy, no
        core-pool queueing (like an ISR, the issuing core runs it inline)."""
        yield self.system.sim.timeout(cost)
        self.system.cpu.busy_seconds += cost

    def _guarded_process(self, leg: LegSpec, state, ctx) -> Generator:
        s = self.system
        op = self.device.process(leg.fused, count=leg.count, ctx=ctx)
        if s.injector is None:
            return op
        return s.injector.guard(
            "dsa", op, actor=self.device.name,
            request_id=state.request_id if state is not None else -1,
        )

    def execute(self, leg, phases, state, ctx) -> Generator:
        from ..core import system as _sys

        s = self.system
        n = leg.count
        span, cctx = s._phase_span(
            ctx, "movement-in", _sys.PHASE_MOVEMENT, count=n
        )
        yield from s._timed(
            phases, _sys.PHASE_MOVEMENT,
            s._leg_transfer(
                leg.src, "root", leg.stage.input_bytes, n, state, cctx
            ),
            span=span,
        )
        # ENQCMD portal submission from the issuing core.
        span, _ = s._phase_span(
            ctx, "dsa-submit", _sys.PHASE_CONTROL, actor=self.device.name,
            count=n,
        )
        yield from s._timed(
            phases, _sys.PHASE_CONTROL,
            self._host_work(self.config.submit_time(n)), span=span,
        )
        span, cctx = s._phase_span(
            ctx, "restructure", _sys.PHASE_RESTRUCTURE,
            actor=self.device.name, count=n,
        )
        yield from s._timed(
            phases, _sys.PHASE_RESTRUCTURE,
            self._guarded_process(leg, state, cctx), span=span,
        )
        # Completion-record polling on-core — the no-interrupt path.
        span, _ = s._phase_span(
            ctx, "dsa-poll", _sys.PHASE_CONTROL, actor=self.device.name,
            count=n,
        )
        yield from s._timed(
            phases, _sys.PHASE_CONTROL,
            self._host_work(self.config.poll_time(n)), span=span,
        )
        span, cctx = s._phase_span(
            ctx, "movement-out", _sys.PHASE_MOVEMENT, count=n
        )
        yield from s._timed(
            phases, _sys.PHASE_MOVEMENT,
            s._leg_transfer(
                "root", leg.dst, leg.stage.output_bytes, n, state, cctx
            ),
            span=span,
        )
