"""Closed-loop control: the unified autoscaling + placement controller.

This package closes the loop over the actuators the rest of the system
exposes open-loop — WRR weights, the brownout ladder, standalone-card
capacity, and chain→card placement — from one deterministic sensing
substrate (windowed tail latency vs. SLO plus live health scores). See
:class:`ClosedLoopController` for the loop,
:class:`~repro.control.cost.TierCostModel` for the cheapest-sufficient-
tier pricing, and :func:`~repro.control.placement.plan_placement` for
the crossing-minimizing re-packer.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "controller": ("ClosedLoopController", "ControllerConfig"),
    "cost": ("TierBid", "TierCostModel"),
    "placement": ("PlacementPlan", "plan_placement"),
})
