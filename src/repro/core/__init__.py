"""DMX core: chains, placements, the system model, collectives."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "chain": ("AppChain", "KernelStage", "MotionStage", "merge_profiles"),
    "collectives": (
        "CollectiveResult", "CollectiveSystem", "collective_profile",
        "reduction_profile",
    ),
    "placement": ("Mode", "SystemConfig", "drx_config_for"),
    "system": (
        "PHASE_CONTROL", "PHASE_KERNEL", "PHASE_MOVEMENT",
        "PHASE_RESTRUCTURE", "DMXSystem", "RequestRecord", "RunResult",
    ),
})
