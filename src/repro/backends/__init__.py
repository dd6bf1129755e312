"""Restructuring backends + the cost-based per-leg planner.

See DESIGN.md §13. The package models four ways to execute a motion
stage's restructuring leg — DRX, host CPU, an Intel-DSA-style streaming
engine, and XDMA-style transformation fused into the DMA descriptor —
behind one :class:`RestructureBackend` interface, and the two leg
routers: the :class:`LegPlanner`, which prices each eligible backend
under live contention and picks the cheapest, and the static route's
:class:`FixedRanking` (home DRX unit, sibling unit, CPU).
"""

from .base import (
    BACKEND_CPU,
    BACKEND_DRX,
    BACKEND_DSA,
    BACKEND_KINDS,
    BACKEND_XDMA,
    CostEstimate,
    CPUBackend,
    DRXBackend,
    LegSpec,
    RestructureBackend,
)
from .dsa import DSABackend, DSAConfig, DSADevice
from .planner import FixedRanking, LegPlanner, PlanDecision, PlannerConfig
from .xdma import XDMABackend, XDMAConfig, XDMADevice

__all__ = [
    "BACKEND_CPU",
    "BACKEND_DRX",
    "BACKEND_DSA",
    "BACKEND_KINDS",
    "BACKEND_XDMA",
    "CostEstimate",
    "CPUBackend",
    "DRXBackend",
    "DSABackend",
    "DSAConfig",
    "DSADevice",
    "FixedRanking",
    "LegPlanner",
    "LegSpec",
    "PlanDecision",
    "PlannerConfig",
    "RestructureBackend",
    "XDMABackend",
    "XDMAConfig",
    "XDMADevice",
]
