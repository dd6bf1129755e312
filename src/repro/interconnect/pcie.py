"""PCIe link model.

Models a point-to-point PCIe link as one exclusive slot with
generation- and lane-dependent bandwidth. Bandwidth numbers follow the
standard signaling rates:

=====  ==========  ==============  ======================
Gen    GT/s/lane   Encoding        Effective GB/s per lane
=====  ==========  ==============  ======================
Gen3   8           128b/130b       ~0.985
Gen4   16          128b/130b       ~1.969
Gen5   32          128b/130b (1b flit in practice) ~3.938
=====  ==========  ==============  ======================

On top of raw signaling, TLP/DLLP protocol overhead reduces achievable
payload throughput; we use a configurable ``protocol_efficiency`` (default
0.85, a typical measured large-transfer efficiency for DMA reads/writes).

The paper's system uses x8 links per accelerator downstream and an x8
upstream link per switch (Sec. VII-B), defaulting to Gen 3 with a Gen 4/5
sensitivity study (Fig. 19).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..sim import Resource, Simulator

__all__ = ["PCIeGen", "LinkConfig", "PCIeLink", "GB", "MB", "KB"]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


class PCIeGen(enum.Enum):
    """PCIe generation; value is the per-lane signaling rate in GT/s."""

    GEN3 = 8
    GEN4 = 16
    GEN5 = 32

    @property
    def raw_gbps_per_lane(self) -> float:
        """Post-encoding raw bandwidth per lane, in GB/s."""
        # 128b/130b encoding: 1 byte per GT with ~1.5% framing loss.
        return self.value * (128.0 / 130.0) / 8.0


@dataclass(frozen=True)
class LinkConfig:
    """Static parameters of one PCIe link."""

    gen: PCIeGen = PCIeGen.GEN3
    lanes: int = 8
    protocol_efficiency: float = 0.85
    propagation_latency_s: float = 250e-9

    def __post_init__(self) -> None:
        if self.lanes not in (1, 2, 4, 8, 16):
            raise ValueError(f"invalid PCIe lane count: {self.lanes}")
        if not 0.0 < self.protocol_efficiency <= 1.0:
            raise ValueError(
                f"protocol_efficiency must be in (0, 1], got {self.protocol_efficiency}"
            )
        if not self.propagation_latency_s >= 0:
            raise ValueError("propagation_latency_s must be >= 0 (not NaN)")

    @property
    def bandwidth_bytes_per_s(self) -> float:
        """Effective payload bandwidth of the full link in bytes/second."""
        per_lane = self.gen.raw_gbps_per_lane * 1e9
        return per_lane * self.lanes * self.protocol_efficiency


class PCIeLink:
    """One PCIe link: its bandwidth, and the one slot a cut-through
    transfer holds.

    :meth:`~repro.interconnect.topology.Fabric.transfer` acquires every
    link on a route (FCFS per link) for the route's cut-through
    duration, then adds the bytes to :attr:`bytes_moved`; a transfer
    waiting on a held link is the oversubscription the paper relies on
    (shared upstream links saturating as concurrency grows).
    """

    def __init__(self, sim: Simulator, config: LinkConfig, name: str = "pcie"):
        self.sim = sim
        self.config = config
        self.name = name
        self._slot = Resource(sim, capacity=1, name=name)
        self.bytes_moved = 0

    @property
    def bandwidth(self) -> float:
        """Effective bandwidth in bytes/second."""
        return self.config.bandwidth_bytes_per_s

    def transfer_time(self, nbytes: int) -> float:
        """Unloaded time to move ``nbytes`` across this link."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        return nbytes / self.bandwidth + self.config.propagation_latency_s

    def acquire(self):
        """Request exclusive occupancy (multi-link cut-through transfers)."""
        return self._slot.request()

    def release(self, request) -> None:
        """Release occupancy taken with :meth:`acquire`."""
        self._slot.release(request)

    def relinquish(self, request) -> None:
        """Release a granted occupancy or withdraw a still-queued one.

        Cleanup path for interrupted transfers, which cannot know whether
        their acquisition was granted before the interrupt landed.
        """
        self._slot.relinquish(request)

    def utilization(self) -> float:
        """Busy fraction of the link so far."""
        if self.sim.now == 0:
            return 0.0
        return self._slot.busy_time() / self.sim.now

    @property
    def queue_length(self) -> int:
        return self._slot.queue_length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PCIeLink({self.name}, {self.config.gen.name} x{self.config.lanes}, "
            f"{self.bandwidth / 1e9:.2f} GB/s)"
        )
