"""System integration: host API, drivers, enumeration (Sec. V)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "driver": ("DriverStats", "NotificationCosts", "NotificationModel"),
    "enumeration": ("EnumeratedDevice", "SystemInventory", "enumerate_fabric"),
    "opencl": (
        "CLBuffer", "CLError", "CLEvent", "CommandQueue", "Context",
        "DeviceHandle",
    ),
})
