"""Benchmark names -> chain builders, importing each app on first use."""

from __future__ import annotations

import importlib
from functools import lru_cache, partial
from typing import Callable, Dict, List

from ..core.chain import AppChain

__all__ = ["BENCHMARKS", "benchmark_names", "build_benchmark_chains"]


def _build(app: str, instance: int = 0) -> AppChain:
    """``repro.workloads.<app>.build_chain(instance)``."""
    module = importlib.import_module(f"{__package__}.{app}")
    return module.build_chain(instance)


BENCHMARKS: Dict[str, Callable[[int], AppChain]] = {
    "video-surveillance": partial(_build, "video_surveillance"),
    "sound-detection": partial(_build, "sound_detection"),
    "brain-stimulation": partial(_build, "brain_stimulation"),
    "pii-redaction": partial(_build, "pii_redaction"),
    "db-hash-join": partial(_build, "hash_join"),
}


def benchmark_names() -> List[str]:
    """The five Table I benchmarks, in paper order."""
    return list(BENCHMARKS)


@lru_cache(maxsize=None)
def _template(name: str) -> AppChain:
    if name == "pii-ner":
        return _build("ner_extension")
    if name not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {name!r}")
    return BENCHMARKS[name](0)


def build_benchmark_chains(name: str, n_instances: int) -> List[AppChain]:
    """``n_instances`` uniquely-named copies of one benchmark's chain."""
    if n_instances <= 0:
        raise ValueError("n_instances must be positive")
    template = _template(name)
    base = template.name.rsplit("-", 1)[0]
    return [
        AppChain(name=f"{base}-{i}", stages=list(template.stages))
        for i in range(n_instances)
    ]
