"""System energy accounting (RAPL-style CPU + card + PCIe models)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "models": ("EnergyBreakdown", "EnergyModel", "EnergyParams"),
})
