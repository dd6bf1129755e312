"""Application-chain descriptors: what the DES prices per request.

An :class:`AppChain` is the timing-layer view of one end-to-end
application (Table I): an alternating sequence of :class:`KernelStage`
(domain kernel on an accelerator) and :class:`MotionStage` (the data
restructuring + movement between two kernels). Workload builders in
:mod:`repro.workloads` derive these from *functional* runs — the byte
counts and work profiles come from real data flowing through the real
kernels — then scale them to the paper's batch sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Sequence, Union

from ..accelerators.base import AcceleratorSpec
from ..profiles import WorkProfile

__all__ = ["KernelStage", "MotionStage", "AppChain", "merge_profiles"]


def merge_profiles(profiles: Sequence[WorkProfile], name: str) -> WorkProfile:
    """Fuse a restructuring pipeline's per-op profiles into one job profile.

    Volumes add; bytes_in is the first op's input and bytes_out the last
    op's output, with intermediate traffic folded into both (each
    intermediate materializes once written, once read); character
    fractions are ops-weighted averages.
    """
    if not profiles:
        raise ValueError("cannot merge zero profiles")
    total_ops = sum(p.total_ops for p in profiles)
    total_elements = sum(p.elements for p in profiles)
    # Full memory traffic: every op's input + output streams through.
    bytes_in = sum(p.bytes_in for p in profiles)
    bytes_out = sum(p.bytes_out for p in profiles)

    def weighted(attr: str) -> float:
        if total_ops == 0:
            return getattr(profiles[0], attr)
        return sum(
            getattr(p, attr) * p.total_ops for p in profiles
        ) / total_ops

    return WorkProfile(
        name=name,
        bytes_in=bytes_in,
        bytes_out=bytes_out,
        elements=max(1, total_elements),
        ops_per_element=total_ops / max(1, total_elements),
        element_size=profiles[-1].element_size,
        branch_fraction=min(1.0, weighted("branch_fraction")),
        mispredict_rate=min(1.0, weighted("mispredict_rate")),
        vectorizable_fraction=min(1.0, weighted("vectorizable_fraction")),
        gather_fraction=min(1.0, weighted("gather_fraction")),
    )


@dataclass(frozen=True)
class KernelStage:
    """One domain kernel on its accelerator.

    ``cpu_time_s`` is the host-CPU execution time (the All-CPU config);
    ``accel_time_s`` the accelerator's (paper methodology: measured CPU
    time scaled by the per-kernel accelerator speedup, then by the
    FPGA→ASIC clock ratio).
    """

    name: str
    spec: AcceleratorSpec
    cpu_time_s: float
    accel_time_s: float
    output_bytes: int
    cpu_threads: int = 8
    # Single-core CPU time; defaults to 3x the multi-threaded time (the
    # kernel-grade parallel-scaling calibration). Used by the All-CPU
    # configuration's work-conserving scheduler.
    cpu_serial_time_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cpu_time_s <= 0 or self.accel_time_s <= 0:
            raise ValueError(f"{self.name}: stage times must be positive")
        if self.output_bytes <= 0:
            raise ValueError(f"{self.name}: output_bytes must be positive")
        if self.accel_time_s > self.cpu_time_s:
            raise ValueError(
                f"{self.name}: accelerator slower than CPU — check speedup"
            )
        if self.cpu_serial_time_s is None:
            object.__setattr__(self, "cpu_serial_time_s", self.cpu_time_s * 3.0)
        elif self.cpu_serial_time_s < self.cpu_time_s:
            raise ValueError(
                f"{self.name}: serial time below multi-threaded time"
            )

    def cpu_latency(self, threads: int) -> float:
        """Job latency when run on ``threads`` cores (Amdahl-ish)."""
        threads = max(1, threads)
        return (
            self.cpu_serial_time_s / threads * (1.0 + 0.24 * (threads - 1))
        )


@dataclass(frozen=True)
class MotionStage:
    """The data-motion step between two kernels.

    ``profile`` prices the restructuring computation (CPU or DRX);
    ``input_bytes``/``output_bytes`` price the movement. ``cpu_threads``
    is the MKL-style per-job parallelism when restructuring on the host
    (at least one core).
    """

    name: str
    profile: WorkProfile
    input_bytes: int
    output_bytes: int
    cpu_threads: int = 8

    def __post_init__(self) -> None:
        if self.input_bytes <= 0 or self.output_bytes <= 0:
            raise ValueError(f"{self.name}: byte counts must be positive")
        if self.cpu_threads < 1:
            raise ValueError(
                f"{self.name}: cpu_threads must be at least 1, "
                f"got {self.cpu_threads}"
            )


Stage = Union[KernelStage, MotionStage]


@dataclass
class AppChain:
    """One end-to-end application: kernels chained through motion steps."""

    name: str
    stages: List[Stage] = field(default_factory=list)

    def validate(self) -> None:
        """Chains must alternate kernel / motion, starting and ending on
        kernels (Fig. 2's pipeline shape)."""
        if len(self.stages) < 3:
            raise ValueError(f"{self.name}: need at least kernel-motion-kernel")
        for index, stage in enumerate(self.stages):
            expect_kernel = index % 2 == 0
            if expect_kernel != isinstance(stage, KernelStage):
                raise ValueError(
                    f"{self.name}: stage {index} breaks kernel/motion "
                    "alternation"
                )
        if not isinstance(self.stages[-1], KernelStage):
            raise ValueError(f"{self.name}: chain must end on a kernel")

    @property
    def kernel_stages(self) -> List[KernelStage]:
        return [s for s in self.stages if isinstance(s, KernelStage)]

    @property
    def motion_stages(self) -> List[MotionStage]:
        return [s for s in self.stages if isinstance(s, MotionStage)]

    @property
    def n_accelerators(self) -> int:
        """Accelerator cards this chain occupies."""
        return len(self.kernel_stages)

    def scale_batches(self, factor: float) -> "AppChain":
        """Uniformly scale all data volumes (sensitivity studies)."""
        from ..profiles import scale_profile

        if factor <= 0:
            raise ValueError("scale factor must be positive")
        stages: List[Stage] = []
        for stage in self.stages:
            if isinstance(stage, KernelStage):
                stages.append(
                    replace(
                        stage,
                        cpu_time_s=stage.cpu_time_s * factor,
                        accel_time_s=stage.accel_time_s * factor,
                        cpu_serial_time_s=stage.cpu_serial_time_s * factor,
                        output_bytes=max(1, int(stage.output_bytes * factor)),
                    )
                )
            else:
                stages.append(
                    replace(
                        stage,
                        profile=scale_profile(stage.profile, factor),
                        input_bytes=max(1, int(stage.input_bytes * factor)),
                        output_bytes=max(1, int(stage.output_bytes * factor)),
                    )
                )
        return AppChain(name=self.name, stages=stages)
