"""The five end-to-end benchmark applications (+ the NER extension).

:func:`~repro.workloads.registry.build_benchmark_chains` builds each
chain from the calibrated table (``calibrated.py``) without numpy and
stamps per-instance names for concurrent runs. Each app module's
functional builder runs the real kernels on a small sample to derive
that table (``python -m repro.workloads.calibrate``); an app module,
and numpy with it, is imported only when a builder or demo is used.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {"registry": ("BENCHMARKS", "benchmark_names", "build_benchmark_chains")},
    submodules=(
        "brain_stimulation", "hash_join", "ner_extension", "pii_redaction",
        "sound_detection", "video_surveillance",
    ),
)
