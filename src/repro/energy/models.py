"""System energy model (Sec. VI "Energy evaluation").

The paper measures CPU energy with RAPL, accelerator energy as
post-synthesis power x kernel time, and adds PCIe switch and transfer
energy. This model mirrors that accounting:

* **CPU** — package idle power for the whole run plus per-core-second
  active energy (a RAPL-like decomposition);
* **accelerators** — card power x busy time, plus a small idle floor;
* **DRX units** — unit power x busy time, plus *per-unit static glue
  power* for the whole run. The static term is what makes
  Bump-in-the-Wire (one DRX per accelerator, each with its own PCIe
  multiplexer and glue logic) lose to Standalone (fewer, shared cards)
  at high concurrency in Fig. 15 — replicated glue is paid whether or
  not the unit is busy;
* **PCIe** — energy per transferred byte plus per-switch static power.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

__all__ = ["EnergyParams", "EnergyBreakdown", "EnergyModel"]


@dataclass(frozen=True)
class EnergyParams:
    """Power/energy coefficients (representative datasheet values)."""

    cpu_idle_w: float = 55.0  # package + DRAM idle
    cpu_core_active_w: float = 10.5  # per busy core
    accelerator_active_w: float = 30.0  # VU9P-class card under load
    accelerator_idle_w: float = 4.0
    drx_active_w: float = 12.0
    drx_static_w: float = 10.0  # glue logic + dual-port PCIe mux per unit
    pcie_pj_per_byte: float = 60.0  # ~7.5 pJ/bit end-to-end
    switch_static_w: float = 7.0  # PEX-class switch package

    def __post_init__(self) -> None:
        for name in (field.name for field in fields(self)):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative (not NaN)")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Joules per component for one run."""

    cpu_j: float
    accelerators_j: float
    drx_j: float
    pcie_transfer_j: float
    switches_j: float

    @property
    def total_j(self) -> float:
        return (
            self.cpu_j
            + self.accelerators_j
            + self.drx_j
            + self.pcie_transfer_j
            + self.switches_j
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "cpu": self.cpu_j,
            "accelerators": self.accelerators_j,
            "drx": self.drx_j,
            "pcie_transfer": self.pcie_transfer_j,
            "switches": self.switches_j,
            "total": self.total_j,
        }


class EnergyModel:
    """Integrates component powers over one simulated run."""

    def __init__(self, params: EnergyParams = EnergyParams()):
        self.params = params

    def evaluate(
        self,
        elapsed_s: float,
        cpu_busy_core_seconds: float,
        accelerator_busy_seconds: float,
        n_accelerators: int,
        drx_busy_seconds: float,
        n_drx_units: int,
        bytes_moved: int,
        n_switches: int,
        drx_active_w: float = None,
    ) -> EnergyBreakdown:
        """Energy for a run described by its utilization aggregates."""
        if elapsed_s <= 0:
            raise ValueError("elapsed time must be positive")
        p = self.params
        cpu = p.cpu_idle_w * elapsed_s + p.cpu_core_active_w * cpu_busy_core_seconds
        accel = (
            p.accelerator_active_w * accelerator_busy_seconds
            + p.accelerator_idle_w * n_accelerators * elapsed_s
        )
        # Bigger DRX units (standalone cards) carry proportionally more
        # glue/static power than a bump-in-the-wire unit.
        active_w = drx_active_w or p.drx_active_w
        static_scale = active_w / p.drx_active_w if p.drx_active_w else 1.0
        drx = (
            active_w * drx_busy_seconds
            + p.drx_static_w * static_scale * n_drx_units * elapsed_s
        )
        pcie = p.pcie_pj_per_byte * 1e-12 * bytes_moved
        switches = p.switch_static_w * n_switches * elapsed_s
        return EnergyBreakdown(
            cpu_j=cpu,
            accelerators_j=accel,
            drx_j=drx,
            pcie_transfer_j=pcie,
            switches_j=switches,
        )

    def evaluate_system(self, system, elapsed_s: float = None) -> EnergyBreakdown:
        """Convenience wrapper over a finished :class:`DMXSystem` run."""
        elapsed = elapsed_s if elapsed_s is not None else system.sim.now
        return self.evaluate(
            elapsed_s=elapsed,
            cpu_busy_core_seconds=system.cpu.busy_seconds,
            accelerator_busy_seconds=system.accelerator_busy_seconds(),
            n_accelerators=len(system.accel_devices),
            drx_busy_seconds=system.drx_busy_seconds(),
            n_drx_units=len(system.drx_devices),
            bytes_moved=system.bytes_moved(),
            n_switches=system.n_switches,
            drx_active_w=system.drx_devices and next(
                iter(system.drx_devices.values())
            ).config.power_w or None,
        )
