"""Restructuring backends + the cost-based per-leg planner.

See DESIGN.md §13. The package models four ways to execute a motion
stage's restructuring leg — DRX, host CPU, an Intel-DSA-style streaming
engine, and XDMA-style transformation fused into the DMA descriptor —
behind one :class:`RestructureBackend` interface, and the two leg
routers: the :class:`LegPlanner`, which prices each eligible backend
under live contention and picks the cheapest, and the static route's
:class:`FixedRanking` (home DRX unit, sibling unit, CPU).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": (
        "BACKEND_CPU", "BACKEND_DRX", "BACKEND_DSA", "BACKEND_KINDS",
        "BACKEND_XDMA", "CostEstimate", "CPUBackend", "DRXBackend",
        "LegSpec", "RestructureBackend",
    ),
    "dsa": ("DSABackend", "DSAConfig", "DSADevice"),
    "planner": ("FixedRanking", "LegPlanner", "PlanDecision", "PlannerConfig"),
    "xdma": ("XDMABackend", "XDMAConfig", "XDMADevice"),
})
