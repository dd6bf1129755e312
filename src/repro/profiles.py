"""Shared work-characterization dataclasses.

A :class:`WorkProfile` is the contract between the functional layer and
the timing layer: every kernel and every data-restructuring operation can
describe one invocation's work as element counts, arithmetic intensity,
and control-flow character. The CPU cost model, the CPU top-down
characterization (Fig. 5), and the DRX microarchitecture timing model all
consume the same profile, so "the same work" is priced consistently on
both sides of the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["WorkProfile", "scale_profile"]


@dataclass(frozen=True)
class WorkProfile:
    """One invocation's worth of data-parallel work.

    Parameters
    ----------
    name:
        Label (e.g. ``"mel_scale"``), used in reports.
    bytes_in, bytes_out:
        Data read from / written to memory. Streaming restructuring ops
        touch each input byte about once; the models rely on this.
    elements:
        Number of logical elements processed (drives compute time).
    ops_per_element:
        Arithmetic operations applied per element (adds, muls, compares,
        type conversions all count as one).
    element_size:
        Bytes per element (4 for fp32/int32, 1 for bytes, ...).
    branch_fraction:
        Fraction of instructions that are branches — drives bad-speculation
        and front-end behaviour in the top-down model. Restructuring ops
        are loop-dominated, so this is small (0.02–0.12).
    mispredict_rate:
        Branch misprediction probability.
    vectorizable_fraction:
        Fraction of the arithmetic that vectorizes (the paper measures
        100% vector-capacity use for restructuring; parsing-flavoured ops
        are lower).
    gather_fraction:
        Fraction of memory accesses that are non-streaming (gathers /
        pointer chasing). Raises cache miss costs.
    """

    name: str
    bytes_in: int
    bytes_out: int
    elements: int
    ops_per_element: float
    element_size: int = 4
    branch_fraction: float = 0.05
    mispredict_rate: float = 0.03
    vectorizable_fraction: float = 1.0
    gather_fraction: float = 0.0

    def __post_init__(self) -> None:
        for field_name in ("bytes_in", "bytes_out", "elements",
                           "ops_per_element"):
            if not getattr(self, field_name) >= 0:
                raise ValueError(
                    f"{self.name}: {field_name} must be non-negative "
                    "(not NaN)"
                )
        if not self.element_size > 0:
            raise ValueError(
                f"{self.name}: element_size must be positive (not NaN)"
            )
        for field_name in (
            "branch_fraction",
            "mispredict_rate",
            "vectorizable_fraction",
            "gather_fraction",
        ):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{self.name}: {field_name}={value} not in [0, 1]")

    @property
    def total_ops(self) -> float:
        """Total arithmetic operations in this invocation."""
        return self.elements * self.ops_per_element

    @property
    def total_bytes(self) -> int:
        """Total memory traffic (read + write)."""
        return self.bytes_in + self.bytes_out

    @property
    def arithmetic_intensity(self) -> float:
        """Ops per byte of memory traffic (roofline x-axis)."""
        if self.total_bytes == 0:
            return 0.0
        return self.total_ops / self.total_bytes


def scale_profile(profile: WorkProfile, factor: float) -> WorkProfile:
    """Scale a profile's volume (bytes, elements) by ``factor``.

    Character fields (branchiness, vectorizability) are volume-independent
    and kept as-is. Used to derive per-batch profiles from per-unit ones.
    """
    if not factor >= 0:
        raise ValueError(f"factor must be non-negative (not NaN): {factor}")
    return replace(
        profile,
        bytes_in=int(round(profile.bytes_in * factor)),
        bytes_out=int(round(profile.bytes_out * factor)),
        elements=int(round(profile.elements * factor)),
    )
