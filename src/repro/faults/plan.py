"""System-level fault & recovery configuration.

:class:`FaultPlan` is the one knob callers hand to
:class:`~repro.core.system.DMXSystem`: which sites get faults (and how
often), plus the recovery budgets — the DMA watchdog timeout and retry
policy, and the per-motion-stage DRX deadline after which a request
degrades to CPU restructuring (the Multi-Axl path). The kernel and
notify watchdogs run on fixed budgets (``KERNEL_TIMEOUT_S`` /
``KERNEL_RETRY`` in :mod:`repro.core.system`, ``NOTIFY_TIMEOUT_S`` /
``NOTIFY_RETRY`` in :mod:`repro.runtime.driver`).

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
    notify: FaultPolicy = FaultPolicy()
    # Planner-backend engines (active only when repro.backends is armed).
    dsa: FaultPolicy = FaultPolicy()
    xdma: FaultPolicy = FaultPolicy()
    # DMA watchdog timeout + bounded-backoff retry.
    dma_timeout_s: float = 50e-3
    dma_retry: RetryPolicy = RetryPolicy()
    # Deadline budget for one motion stage's DRX path; past it the
    # request falls back to CPU restructuring (Multi-Axl path).
    drx_deadline_s: float = 100e-3

    def __post_init__(self) -> None:
        for name in ("dma_timeout_s", "drx_deadline_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive (not NaN)")

    def site_policies(self) -> Dict[str, FaultPolicy]:
        """The injector's site → policy mapping; each site is named
        after its field (``scale_plan`` relies on it)."""
        return {
            "dma": self.dma,
            "drx": self.drx,
            "kernel": self.kernel,
            "notify": self.notify,
            "dsa": self.dsa,
            "xdma": self.xdma,
        }
