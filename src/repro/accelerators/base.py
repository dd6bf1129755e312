"""Accelerator base classes: functional kernels + device timing model.

Every domain accelerator in the modeled system pairs:

* a **functional kernel** — a real from-scratch implementation (the AES
  core really decrypts, the FFT really transforms) so the inter-kernel
  restructuring operates on genuine data; and
* a **device model** — an occupancy (one kernel in flight per card, like
  the paper's FPGA instances) and a latency model. Following the paper's
  methodology, per-kernel latency is expressed relative to the measured
  CPU time: the paper reports a 6.5x geomean per-accelerator speedup,
  with per-kernel factors varying (Video Surveillance's codec gains
  least). We carry a per-kernel ``speedup_vs_cpu`` calibration factor and
  an ASIC frequency-scaling knob (250 MHz FPGA → 1 GHz ASIC).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..profiles import WorkProfile
from ..sim import Server, Simulator

__all__ = ["AcceleratorSpec", "Accelerator", "AcceleratorDevice"]


@dataclass(frozen=True)
class AcceleratorSpec:
    """Static description of one accelerator card.

    Parameters
    ----------
    name, domain:
        Identity ("fft-accel", domain "signal-processing").
    speedup_vs_cpu:
        Measured kernel speedup over the host CPU implementation — the
        paper's per-accelerator scaling factor (geomean 6.5x across the
        benchmark suite).
    implementation:
        "hls" | "rtl" | "hard-ip" — mirrors Table I's accelerator sources.
    fpga_clock_hz / asic_clock_hz:
        The paper synthesizes at 250 MHz on the VU9P and scales to a
        1 GHz ASIC; the ratio scales kernel latency when ``asic=True``.
    power_w:
        Card power while the kernel runs (energy model input).
    """

    name: str
    domain: str
    speedup_vs_cpu: float
    implementation: str = "hls"
    fpga_clock_hz: float = 250e6
    asic_clock_hz: float = 1e9
    power_w: float = 30.0

    def __post_init__(self) -> None:
        if self.implementation not in ("hls", "rtl", "hard-ip"):
            raise ValueError(f"{self.name}: unknown implementation kind")
        for field_name in ("speedup_vs_cpu", "fpga_clock_hz",
                           "asic_clock_hz", "power_w"):
            if not getattr(self, field_name) > 0:
                raise ValueError(
                    f"{self.name}: {field_name} must be positive (not NaN)"
                )

    @property
    def asic_scaling(self) -> float:
        """Latency divisor when deployed as an ASIC instead of FPGA."""
        return self.asic_clock_hz / self.fpga_clock_hz


class Accelerator(abc.ABC):
    """A domain kernel with functional and timing contracts.

    Subclasses implement :meth:`run` (real computation) and
    :meth:`work_profile` (the kernel's work character for the CPU-side
    reference cost — the All-CPU configuration runs the same profile on
    the host model).
    """

    spec: AcceleratorSpec

    @abc.abstractmethod
    def run(self, data: Any) -> Any:
        """Execute the kernel functionally on real data."""

    @abc.abstractmethod
    def work_profile(self, data: Any) -> WorkProfile:
        """Characterize one invocation's work for the cost models."""

    def __call__(self, data: Any) -> Any:
        return self.run(data)


class AcceleratorDevice:
    """DES occupancy model of one accelerator card.

    A card executes one enqueued kernel at a time (command-queue
    semantics); concurrent requests from pipelined invocations queue.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: AcceleratorSpec,
        kernel_time_s: float,
        name: Optional[str] = None,
    ):
        if not kernel_time_s >= 0:
            raise ValueError("kernel_time_s must be non-negative (not NaN)")
        self.sim = sim
        self.spec = spec
        self.kernel_time_s = kernel_time_s
        self.name = name or spec.name
        self._server = Server(sim, capacity=1, name=self.name)
        self.invocations = 0
        self.busy_seconds = 0.0

    def execute(self) -> Generator:
        """Process: run one kernel invocation on the card."""
        start = self.sim.now
        yield from self._server.transfer(self.kernel_time_s)
        self.invocations += 1
        self.busy_seconds += self.kernel_time_s
        return self.sim.now - start

    def utilization(self) -> float:
        return self._server.utilization()
