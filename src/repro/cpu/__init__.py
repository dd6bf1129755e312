"""Host CPU models: specs, cache behaviour, top-down analysis, DES device."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": ("CacheBehaviour", "CacheModel"),
    "host": ("HostCPU",),
    "specs": ("XEON_8260L", "CacheLevel", "CPUSpec"),
    "topdown": ("TopDownBreakdown", "TopDownModel"),
})
