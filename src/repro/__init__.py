"""Reproduction of "Data Motion Acceleration: Chaining Cross-Domain
Multi Accelerators" (HPCA 2024).

Subpackages
-----------
``repro.sim``
    Discrete-event simulation engine (processes, resources, tracing).
``repro.interconnect``
    PCIe substrate: links, switches, fabric routing, DMA engines.
``repro.cpu``
    Host CPU models: cache behaviour, top-down analysis, DES device.
``repro.drx``
    The Data Restructuring Accelerator: ISA, assembler, functional
    simulator, compiler, timing model, data queues.
``repro.accelerators``
    Domain accelerators with real from-scratch kernels (FFT, SVM,
    AES-GCM, regex NFA, LZ77, hash join, video codec, CNN, PPO, BERT).
``repro.restructuring``
    The data-restructuring operation library (functional + profiled).
``repro.runtime``
    OpenCL-style host API, driver/interrupt models, PCIe enumeration.
``repro.core``
    DMX itself: application chains, DRX placements, the system model,
    collective communication.
``repro.energy``
    RAPL-style system energy accounting.
``repro.workloads``
    The five Table I benchmarks plus the PIR+NER extension.
``repro.serve``
    Online multi-tenant serving: stochastic arrivals, admission
    control, SLO percentiles, latency-vs-load knee sweeps.
``repro.eval``
    One experiment driver per paper table/figure
    (``python -m repro.eval``).
"""

from ._lazy import lazy_exports

__version__ = "0.1.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "profiles": ("WorkProfile", "scale_profile"),
})
