"""DRX microarchitecture timing model (Sec. IV-B, Fig. 6).

The DRX is a decoupled access-execute machine: the Off-chip Data Access
Engine streams tiles between DDR4 and the scratchpads while the
Restructuring Engine lanes compute — so steady-state time is the *max*
of the memory stream time and the compute time, not their sum. The
Instruction Repeater removes branch overhead, and the strided address
calculator removes address arithmetic, so compute cycles are just
``lane-operations / lanes``.

Two entry points produce latencies:

* :meth:`DRXTimingModel.time_from_stats` — cycle-accurate-ish timing for
  a program executed on the functional simulator;
* :meth:`DRXTimingModel.time_for_profile` — analytical timing for a
  :class:`~repro.profiles.WorkProfile`, used by the system-level DES
  (same formula, volume taken from the profile).

Defaults follow the paper's evaluated configuration: 128 RE lanes,
64 KB instruction cache, 64 KB scratchpad, one DDR4-3200 channel
(~25 GB/s, chosen to match an x8 PCIe Gen 4 link), 250 MHz on FPGA and
1 GHz as ASIC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from ..profiles import WorkProfile
from ..sim import ServerDevice, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import SpanContext
    from .functional import ExecutionStats

__all__ = ["DRXConfig", "DRXTimingModel", "DRXDevice", "DEFAULT_DRX"]


@dataclass(frozen=True)
class DRXConfig:
    """Static DRX hardware configuration (the compiler's arch file)."""

    lanes: int = 128
    frequency_hz: float = 1e9  # ASIC; FPGA prototype runs at 250 MHz
    scratchpad_bytes: int = 64 * 1024
    icache_bytes: int = 64 * 1024
    dram_bandwidth: float = 25e9  # one DDR4-3200 channel, B/s
    dram_bytes: int = 8 * 1024**3
    n_banks: int = 16
    compute_efficiency: float = 0.9  # achieved fraction of peak lane thruput
    # Fraction of CPU-scalar work that stays scalar on DRX. The DRX
    # compiler vectorizes most control-flow-bound restructuring (compare +
    # select predication, strided-address gathers) that defeats CPU
    # auto-vectorization; the residual runs in DRX scalar mode.
    scalar_residual: float = 0.1
    kernel_launch_overhead_s: float = 2e-6  # program load + SYNC pair
    transpose_throughput_elems_per_cycle: Optional[int] = None  # default: lanes
    power_w: float = 12.0  # DRX card power while restructuring

    def __post_init__(self) -> None:
        for field_name in ("lanes", "frequency_hz", "dram_bandwidth",
                           "power_w"):
            if not getattr(self, field_name) > 0:
                raise ValueError(f"{field_name} must be positive (not NaN)")
        if not 0 < self.compute_efficiency <= 1:
            raise ValueError("compute_efficiency must be in (0, 1]")

    @property
    def effective_lane_rate(self) -> float:
        """Lane-operations per second the RE array sustains."""
        return self.lanes * self.frequency_hz * self.compute_efficiency


DEFAULT_DRX = DRXConfig()


class DRXTimingModel:
    """Latency estimation for restructuring work on a DRX."""

    def __init__(self, config: DRXConfig = DEFAULT_DRX):
        self.config = config

    def time_from_stats(self, stats: ExecutionStats) -> float:
        """Latency of a functionally-executed program.

        Decoupled access-execute: overlap memory streaming with compute;
        loop iterations cost one Instruction Repeater cycle each.
        """
        cfg = self.config
        transpose_rate = cfg.transpose_throughput_elems_per_cycle or cfg.lanes
        compute_cycles = (
            stats.vector_ops / (cfg.lanes * cfg.compute_efficiency)
            + stats.transpose_elements / transpose_rate
            + stats.loop_iterations
            + stats.dynamic_instructions * 0.05  # issue overhead
        )
        compute_time = compute_cycles / cfg.frequency_hz
        memory_time = stats.bytes_total / cfg.dram_bandwidth
        return cfg.kernel_launch_overhead_s + max(compute_time, memory_time)

    def time_for_profile(self, profile: WorkProfile) -> float:
        """Analytical latency for a work profile (system-model path).

        Most of the CPU-scalar fraction vectorizes under the DRX compiler
        (predication + strided addressing); the residual runs in DRX
        scalar mode ("turns off all but one REs"). Gathers are free for
        DRX — the programmable strided address calculator and scratchpads
        are exactly the hardware the paper adds to beat the CPU's cache
        hierarchy.
        """
        cfg = self.config
        scalar_ops = (
            profile.total_ops
            * (1.0 - profile.vectorizable_fraction)
            * cfg.scalar_residual
        )
        vec_ops = profile.total_ops - scalar_ops
        compute_time = (
            vec_ops / cfg.effective_lane_rate
            + scalar_ops / (cfg.frequency_hz * cfg.compute_efficiency)
        )
        memory_time = profile.total_bytes / cfg.dram_bandwidth
        return cfg.kernel_launch_overhead_s + max(compute_time, memory_time)

    def time_for_profile_batch(self, profiles: "list[WorkProfile]") -> float:
        """Analytical latency for a coalesced batch of restructuring jobs.

        A batched submission loads one program and pays one SYNC pair
        (``kernel_launch_overhead_s``) for the whole batch; each member's
        data-dependent work (the ``max(compute, memory)`` steady state)
        still runs in full. This is the amortized-setup model the serve
        layer's :class:`~repro.serve.batching.BatchFormer` buys.
        """
        if not profiles:
            raise ValueError("batch needs at least one profile")
        launch = self.config.kernel_launch_overhead_s
        return launch + sum(
            self.time_for_profile(p) - launch for p in profiles
        )

    def bound_for_profile(self, profile: WorkProfile) -> str:
        """Which side of the roofline binds: "compute" or "memory"."""
        cfg = self.config
        scalar_ops = (
            profile.total_ops
            * (1.0 - profile.vectorizable_fraction)
            * cfg.scalar_residual
        )
        vec_ops = profile.total_ops - scalar_ops
        compute_time = (
            vec_ops / cfg.effective_lane_rate
            + scalar_ops / (cfg.frequency_hz * cfg.compute_efficiency)
        )
        memory_time = profile.total_bytes / cfg.dram_bandwidth
        return "compute" if compute_time >= memory_time else "memory"


class DRXDevice(ServerDevice):
    """DES occupancy model of one DRX unit.

    One restructuring kernel executes at a time; concurrent jobs queue —
    the shared-DRX contention that differentiates Integrated/Standalone
    placements from Bump-in-the-Wire.
    """

    category = "drx"

    def __init__(
        self,
        sim: Simulator,
        config: DRXConfig = DEFAULT_DRX,
        name: str = "drx",
    ):
        super().__init__(sim, capacity=1, name=name)
        self.config = config
        self.timing = DRXTimingModel(config)

    def restructure(
        self,
        profile: WorkProfile,
        ctx: "SpanContext",
        count: int = 1,
    ) -> Generator:
        """Process: run one restructuring job on this DRX unit.

        ``count > 1`` runs a coalesced batch of ``count`` jobs on
        ``profile`` as ONE occupancy of the unit, held for
        :meth:`DRXTimingModel.time_for_profile_batch` — one program load
        + SYNC pair amortized over all members — and counts every member
        in ``jobs_completed``. A single job is priced by
        :meth:`DRXTimingModel.time_for_profile` itself.

        The job records a "drx" span in ``ctx``; its ``queued_s``
        attribute is the time the job waited behind other jobs on this
        unit (the shared-DRX contention signal).
        """
        if count == 1:
            duration = self.timing.time_for_profile(profile)
        else:
            duration = self.timing.time_for_profile_batch([profile] * count)
        return self._occupy(duration, count, ctx)
