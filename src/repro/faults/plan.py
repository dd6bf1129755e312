"""System-level fault & recovery configuration.

:class:`FaultPlan` is the one knob callers hand to
:class:`~repro.core.system.DMXSystem`: which sites get faults (and how
often), plus the recovery budgets — per-operation watchdog timeouts,
retry policies, and the per-motion-stage DRX deadline after which a
request degrades to CPU restructuring (the Multi-Axl path).

Defaults are generous relative to the modeled operation latencies
(milliseconds of transfer and restructuring) so a plan with all
probabilities at zero never trips a spurious timeout under contention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .injector import FaultPolicy
from .recovery import RetryPolicy

__all__ = ["FaultPlan"]


@dataclass(frozen=True)
class FaultPlan:
    """Fault-injection sites and recovery budgets for one system run."""

    seed: int = 0
    # Per-site injection policies (all off by default).
    dma: FaultPolicy = FaultPolicy()
    drx: FaultPolicy = FaultPolicy()
    kernel: FaultPolicy = FaultPolicy()
    fabric: FaultPolicy = FaultPolicy()
    notify: FaultPolicy = FaultPolicy()
    # Planner-backend engines (active only when repro.backends is armed).
    dsa: FaultPolicy = FaultPolicy()
    xdma: FaultPolicy = FaultPolicy()
    # Watchdog timeouts + bounded-backoff retry per operation class.
    dma_timeout_s: float = 50e-3
    dma_retry: RetryPolicy = RetryPolicy()
    kernel_timeout_s: float = 50e-3
    kernel_retry: RetryPolicy = RetryPolicy()
    notify_timeout_s: float = 200e-6
    notify_retry: RetryPolicy = RetryPolicy()
    # Deadline budget for one motion stage's DRX path; past it the
    # request falls back to CPU restructuring (Multi-Axl path).
    drx_deadline_s: float = 100e-3

    def __post_init__(self) -> None:
        for name in ("dma_timeout_s", "kernel_timeout_s", "notify_timeout_s",
                     "drx_deadline_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive (not NaN)")

    def site_policies(self) -> Dict[str, FaultPolicy]:
        """The injector's site → policy mapping."""
        return {
            "dma": self.dma,
            "drx": self.drx,
            "kernel": self.kernel,
            "fabric": self.fabric,
            "notify": self.notify,
            "dsa": self.dsa,
            "xdma": self.xdma,
        }
