"""The five end-to-end benchmark applications (+ the NER extension).

Chain construction runs the functional kernels on small samples and is
therefore moderately expensive (~seconds);
:func:`~repro.workloads.registry.build_benchmark_chains` caches built
chains and stamps per-instance names for concurrent runs. An app's
module (and numpy with it) is imported when its chain is first built.
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
