"""DRX placement options and system modes (Sec. III, Fig. 4).

Four DRX placements are modeled, plus the two reference configurations:

* ``ALL_CPU`` — kernels *and* restructuring on the host CPU;
* ``MULTI_AXL`` — kernels on accelerators, restructuring on the CPU
  (the paper's baseline);
* ``INTEGRATED`` — one DRX integrated next to the CPU; all data still
  crosses the (shared) upstream links;
* ``STANDALONE`` — DRX PCIe cards, one per application, installed under
  the same switch as that application's accelerators; the 25 W PCIe
  slot power budget caps the card's clock;
* ``BUMP_IN_WIRE`` — one DRX in front of every accelerator, reached
  over a private internal multiplexer (no switch traversal on the
  accelerator→DRX hop);
* ``PCIE_INTEGRATED`` — DRX inside each PCIe switch, processing at the
  aggregate line rate of the downstream ports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from ..drx.microarch import DRXConfig, DEFAULT_DRX
from ..interconnect import PCIeGen

__all__ = ["Mode", "SystemConfig", "drx_config_for"]


class Mode(enum.Enum):
    """System configuration: the two references plus the four placements."""

    ALL_CPU = "all-cpu"
    MULTI_AXL = "multi-axl"
    INTEGRATED = "integrated-drx"
    STANDALONE = "standalone-drx"
    BUMP_IN_WIRE = "bump-in-the-wire-drx"
    PCIE_INTEGRATED = "pcie-integrated-drx"

    @property
    def uses_drx(self) -> bool:
        return self in (
            Mode.INTEGRATED,
            Mode.STANDALONE,
            Mode.BUMP_IN_WIRE,
            Mode.PCIE_INTEGRATED,
        )


@dataclass(frozen=True)
class SystemConfig:
    """Knobs for one simulated system instance."""

    mode: Mode = Mode.BUMP_IN_WIRE
    pcie_gen: PCIeGen = PCIeGen.GEN3
    drx: DRXConfig = DEFAULT_DRX
    accelerators_per_switch: int = 8
    # Lanes on the switch→CPU upstream ports and on the accelerator
    # downstream ports. Newer-generation CPUs expose more lanes
    # (Sec. VII-C's Fig. 19 discussion), so the Gen 4/5 *baselines* widen
    # these; DMX accelerator/DRX cards keep their fixed x8 edge.
    upstream_lanes: int = 8
    accelerator_lanes: int = 8
    # Standalone cards run off PCIe slot power (25 W), which binds the
    # card's clock: drx_config_for multiplies it by this factor, so by
    # default a standalone DRX runs at 85% of the base clock.
    standalone_derate: float = 0.85

    def __post_init__(self) -> None:
        if not self.accelerators_per_switch > 0:
            raise ValueError(
                "accelerators_per_switch must be positive (not NaN)"
            )
        if not 0 < self.standalone_derate <= 1:
            raise ValueError("standalone_derate must be in (0, 1]")


def drx_config_for(config: SystemConfig) -> DRXConfig:
    """The effective DRX hardware configuration for a placement.

    * Standalone cards are clock-derated by the 25 W slot budget.
    * PCIe-Integrated DRX runs at the switch's aggregate line rate —
      modeled as a DRAM-bandwidth uplift (it processes in-flight data
      without a store-and-forward DRAM hop).
    """
    base = config.drx
    if config.mode == Mode.STANDALONE:
        # One large card shared by a couple of applications: twice the
        # lanes but a derated clock and only modestly more memory
        # bandwidth — the 25 W PCIe slot budget binds.
        return replace(
            base,
            frequency_hz=base.frequency_hz * config.standalone_derate,
            lanes=base.lanes * 2,
            dram_bandwidth=base.dram_bandwidth * 1.2,
            power_w=base.power_w * 2,
        )
    if config.mode == Mode.PCIE_INTEGRATED:
        # Switch-integrated DRX must process at the aggregated line rate
        # of all downstream ports (the engineering burden Sec. III calls
        # prohibitive) — its streaming rate scales with the port count.
        return replace(
            base,
            dram_bandwidth=base.dram_bandwidth * config.accelerators_per_switch,
            lanes=base.lanes * config.accelerators_per_switch,
        )
    return base
