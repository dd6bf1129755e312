"""Benchmark names -> chains: built from the calibrated table, numpy-free.

:func:`build_benchmark_chains` reads only ``calibrated.py``, the table
``python -m repro.workloads.calibrate`` writes from the functional
builders. :data:`BENCHMARKS` maps each Table I name to its functional
builder (the calibration source), which imports its app module, and
numpy with it, on first call.
"""

from __future__ import annotations

import importlib
from functools import lru_cache, partial
from typing import Callable, Dict, List

from ..accelerators.base import AcceleratorSpec
from ..core.chain import AppChain, KernelStage, MotionStage, Stage
from ..profiles import WorkProfile

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


def _stage(row: dict) -> Stage:
    """One table row as its stage: a kernel carries a spec, a motion step
    a work profile."""
    if "spec" in row:
        return KernelStage(**{**row, "spec": AcceleratorSpec(**row["spec"])})
    return MotionStage(**{**row, "profile": WorkProfile(**row["profile"])})


@lru_cache(maxsize=None)
def _template(name: str) -> AppChain:
    # Imported on first build: a run that builds no Table I chain (the
    # RPC chains of the batching demo) does not load the table.
    from .calibrated import CHAINS

    if name not in CHAINS:
        raise KeyError(f"unknown benchmark {name!r}")
    row = CHAINS[name]
    return AppChain(name=row["name"],
                    stages=[_stage(stage) for stage in row["stages"]])


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
