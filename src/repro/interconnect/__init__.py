"""PCIe interconnect substrate: links, fabric topology, DMA engines."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "dma": ("DMACosts", "DMAEngine"),
    "pcie": ("GB", "KB", "MB", "LinkConfig", "PCIeGen", "PCIeLink"),
    "topology": ("SWITCH_PORT_LATENCY_S", "Fabric", "Node"),
})
