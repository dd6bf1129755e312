"""One-to-many and many-to-one data movement (Sec. V + Fig. 17).

Models broadcast and all-reduce over 4–32 accelerators:

* **baseline (Multi-Axl)** — the source accelerator DMAs its output to
  host memory, the CPU restructures, and the driver then "copies the
  restructured data and initiates N DMA transfers sequentially to the
  destination accelerators" — a host-memory staging copy plus a DMA per
  destination. All-reduce = scatter-reduce + all-gather with the CPU
  restructuring and summing all N inputs.
* **DMX (Bump-in-the-Wire)** — DRXs form a two-level distribution tree:
  the source DRX sends once per switch group; a leader DRX under each
  switch relays to its local peers, all groups in parallel. Reductions
  run hierarchically on the DRX RE lanes (group leaders reduce their
  group, the root reduces the leaders). Descriptor-chained P2P DMAs pay
  the driver setup once.

The Fig. 17 dip at ≥16 accelerators emerges from the extra switch hops
once the fan-out spans multiple switches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List

from ..cpu import HostCPU
from ..drx.microarch import DRXDevice
from ..interconnect import DMAEngine, Fabric, LinkConfig
from ..profiles import WorkProfile
from ..runtime.driver import NotificationModel
from ..sim import AllOf, Simulator
from ..telemetry import Telemetry
from .placement import Mode, SystemConfig, drx_config_for

__all__ = ["CollectiveSystem", "CollectiveResult", "collective_profile",
           "reduction_profile"]

# Host-memory staging copy rate for the baseline's driver copies.
HOST_COPY_BYTES_PER_S = 4e9


def collective_profile(nbytes: int, ops_per_element: float = 16.0) -> WorkProfile:
    """Restructuring work on a collective payload.

    Fan-out data motion restructures per destination format (layout
    shuffles, precision conversion, resharding) — gather-flavoured,
    moderately compute-heavy work.
    """
    return WorkProfile(
        name="collective-restructure",
        bytes_in=nbytes,
        bytes_out=nbytes,
        elements=max(1, nbytes // 4),
        ops_per_element=ops_per_element,
        element_size=4,
        gather_fraction=0.3,
    )


def reduction_profile(nbytes: int, n_sources: int) -> WorkProfile:
    """Summing ``n_sources`` buffers of ``nbytes`` into one."""
    return WorkProfile(
        name="collective-reduce",
        bytes_in=nbytes * n_sources,
        bytes_out=nbytes,
        elements=max(1, nbytes // 4),
        ops_per_element=2.0 * n_sources,
        element_size=4,
    )


@dataclass
class CollectiveResult:
    """Latency of one collective operation."""

    operation: str
    mode: Mode
    n_accelerators: int
    latency_s: float


class CollectiveSystem:
    """A fan-out of N accelerators for collective experiments.

    Like :class:`~repro.core.system.DMXSystem`, it owns a
    :class:`~repro.telemetry.Telemetry`: every DMA, notification and DRX
    job records its span under the run's root context.
    """

    def __init__(self, n_accelerators: int, config: SystemConfig):
        if not n_accelerators >= 2:
            raise ValueError(
                f"n_accelerators must be >= 2 (not NaN), got {n_accelerators}"
            )
        if config.mode not in (Mode.MULTI_AXL, Mode.BUMP_IN_WIRE):
            raise ValueError("collectives are modeled for Multi-Axl and BITW")
        self.config = config
        self.n = n_accelerators
        self.sim = Simulator()
        self.telemetry = Telemetry(self.sim)
        self.ctx = self.telemetry.context()
        self.cpu = HostCPU(self.sim, max_threads=16, parallel_overhead=0.35)
        self.fabric = Fabric(
            self.sim, link_config=LinkConfig(gen=config.pcie_gen, lanes=8)
        )
        self.dma = DMAEngine(self.sim, self.fabric)
        self.notifier = NotificationModel(self.sim, self.cpu)
        self.accels: List[str] = []
        self.drxs: Dict[str, DRXDevice] = {}
        self.groups: List[List[str]] = []  # accelerator names per switch
        drx_config = drx_config_for(config)
        switch = None
        slots = 0
        for index in range(n_accelerators):
            if slots == 0:
                switch = self.fabric.add_switch(f"sw{len(self.groups)}")
                slots = config.accelerators_per_switch
                self.groups.append([])
            name = f"a{index}"
            self.fabric.add_endpoint(name, switch)
            self.groups[-1].append(name)
            slots -= 1
            self.accels.append(name)
            if config.mode == Mode.BUMP_IN_WIRE:
                self.fabric.add_inline(f"{name}.drx", name)
                self.drxs[name] = DRXDevice(
                    self.sim, drx_config, name=f"{name}.drx"
                )

    def _drx(self, accel: str) -> DRXDevice:
        return self.drxs[accel]

    def _host_copy(self, nbytes: int) -> Generator:
        """The driver's host-memory staging copy (baseline only)."""
        return self.cpu.charge(nbytes / HOST_COPY_BYTES_PER_S)

    # -- broadcast ------------------------------------------------------------

    def _broadcast_baseline(self, nbytes: int) -> Generator:
        src = self.accels[0]
        yield from self.notifier.notify(src, self.ctx)
        yield from self.dma.transfer(src, "root", nbytes, self.ctx)
        yield from self.cpu.restructure(collective_profile(nbytes), threads=3)
        # Per destination: staging copy, then a sequential DMA (Sec. VII-C).
        for dst in self.accels[1:]:
            yield from self._host_copy(nbytes)
            yield from self.dma.transfer("root", dst, nbytes, self.ctx)

    def _broadcast_dmx(self, nbytes: int) -> Generator:
        src = self.accels[0]
        src_drx = self._drx(src)
        yield from self.notifier.notify(src, self.ctx)
        yield from self.dma.transfer(src, src_drx.name, nbytes, self.ctx)
        yield from src_drx.restructure(collective_profile(nbytes), self.ctx)

        def relay(group: List[str], is_source_group: bool) -> Generator:
            members = [a for a in group if a != src]
            if not members:
                return
            if is_source_group:
                relay_drx = src_drx
            else:
                leader = members[0]
                yield from self.dma.transfer(
                    src_drx.name, self._drx(leader).name, nbytes, self.ctx,
                    charge_setup=False, charge_completion=False,
                )
                relay_drx = self._drx(leader)
                members = members[1:]
            for dst in members:
                yield from self.dma.transfer(
                    relay_drx.name, dst, nbytes, self.ctx,
                    charge_setup=False, charge_completion=False,
                )

        relays = [
            self.sim.spawn(relay(group, index == 0))
            for index, group in enumerate(self.groups)
        ]
        yield AllOf(self.sim, relays)

    # -- all-reduce ------------------------------------------------------------

    def _allreduce_baseline(self, nbytes: int) -> Generator:
        # Scatter-reduce: every accelerator ships its buffer to the CPU,
        # which restructures and sums all N; all-gather: a staging copy
        # plus a sequential DMA per destination.
        for src in self.accels:
            yield from self.notifier.notify(src, self.ctx)
            yield from self.dma.transfer(src, "root", nbytes, self.ctx)
        yield from self.cpu.restructure(
            collective_profile(nbytes * self.n), threads=3
        )
        yield from self.cpu.restructure(
            reduction_profile(nbytes, self.n), threads=3
        )
        for dst in self.accels:
            yield from self._host_copy(nbytes)
            yield from self.dma.transfer("root", dst, nbytes, self.ctx)

    def _allreduce_dmx(self, nbytes: int) -> Generator:
        root = self.accels[0]
        root_drx = self._drx(root)

        def group_reduce(group: List[str]) -> Generator:
            """Members push to the group leader's DRX, which sums."""
            leader_drx = self._drx(group[0])
            for index, member in enumerate(group):
                yield from self.dma.transfer(
                    member, leader_drx.name, nbytes, self.ctx,
                    charge_setup=(index == 0), charge_completion=False,
                )
                yield from leader_drx.restructure(
                    collective_profile(nbytes), self.ctx
                )
            yield from leader_drx.restructure(
                reduction_profile(nbytes, len(group)), self.ctx
            )
            if group[0] != root:
                yield from self.dma.transfer(
                    leader_drx.name, root_drx.name, nbytes, self.ctx,
                    charge_setup=False, charge_completion=False,
                )

        reduces = [self.sim.spawn(group_reduce(g)) for g in self.groups]
        yield AllOf(self.sim, reduces)
        yield from root_drx.restructure(
            reduction_profile(nbytes, len(self.groups)), self.ctx
        )

        # All-gather: the same two-level distribution tree as broadcast.
        def gather_relay(group: List[str], is_root_group: bool) -> Generator:
            if is_root_group:
                relay_drx = root_drx
                members = [a for a in group if a != root]
            else:
                leader = group[0]
                yield from self.dma.transfer(
                    root_drx.name, self._drx(leader).name, nbytes, self.ctx,
                    charge_setup=False, charge_completion=False,
                )
                relay_drx = self._drx(leader)
                members = group
            for dst in members:
                yield from self.dma.transfer(
                    relay_drx.name, dst, nbytes, self.ctx,
                    charge_setup=False, charge_completion=False,
                )

        relays = [
            self.sim.spawn(gather_relay(group, index == 0))
            for index, group in enumerate(self.groups)
        ]
        yield AllOf(self.sim, relays)

    # -- entry point ------------------------------------------------------------

    def run(self, operation: str, nbytes: int) -> CollectiveResult:
        """Execute one collective; returns its latency, from the instant
        this run starts (a system may run several, one after another)."""
        table = {
            ("broadcast", Mode.MULTI_AXL): self._broadcast_baseline,
            ("broadcast", Mode.BUMP_IN_WIRE): self._broadcast_dmx,
            ("allreduce", Mode.MULTI_AXL): self._allreduce_baseline,
            ("allreduce", Mode.BUMP_IN_WIRE): self._allreduce_dmx,
        }
        key = (operation, self.config.mode)
        if key not in table:
            raise ValueError(f"unsupported collective {operation!r}")
        start = self.sim.now
        self.sim.spawn(table[key](nbytes))
        self.sim.run()
        return CollectiveResult(
            operation=operation,
            mode=self.config.mode,
            n_accelerators=self.n,
            latency_s=self.sim.now - start,
        )
