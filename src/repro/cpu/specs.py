"""Host CPU specifications.

Defaults model the paper's testbed host: Intel Xeon Platinum 8260L,
2.4 GHz, 16 cores in use (hyperthreading disabled), AVX-256 vector units,
and a Cascade Lake-like cache hierarchy (the characterization machine,
Xeon Gold 6242R, shares the microarchitecture).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CacheLevel", "CPUSpec", "XEON_8260L"]


@dataclass(frozen=True)
class CacheLevel:
    """One level of the cache hierarchy."""

    name: str
    size_bytes: int
    line_bytes: int
    latency_cycles: float

    def __post_init__(self) -> None:
        for field_name in ("size_bytes", "line_bytes"):
            if not getattr(self, field_name) > 0:
                raise ValueError(
                    f"{self.name}: {field_name} must be positive (not NaN)"
                )
        if not self.latency_cycles >= 0:
            raise ValueError(
                f"{self.name}: latency_cycles must be non-negative (not NaN)"
            )


@dataclass(frozen=True)
class CPUSpec:
    """Static description of the host CPU used by every CPU-side model."""

    name: str
    cores: int
    frequency_hz: float
    vector_width_bits: int  # AVX-256 on the testbed
    vector_ports: int  # SIMD issue ports per core
    l1i: CacheLevel
    l1d: CacheLevel
    l2: CacheLevel
    llc: CacheLevel
    dram_latency_cycles: float
    core_stream_bandwidth: float  # achievable streaming B/s per core
    socket_stream_bandwidth: float  # socket-level memory bandwidth cap, B/s
    mispredict_penalty_cycles: float = 17.0

    def __post_init__(self) -> None:
        for field_name in ("cores", "frequency_hz", "core_stream_bandwidth",
                           "socket_stream_bandwidth"):
            if not getattr(self, field_name) > 0:
                raise ValueError(f"{field_name} must be positive (not NaN)")
        if self.vector_width_bits not in (128, 256, 512):
            raise ValueError(f"unsupported vector width: {self.vector_width_bits}")

    def vector_lanes(self, element_size: int) -> int:
        """SIMD lanes per vector instruction for ``element_size``-byte data."""
        if not element_size > 0:
            raise ValueError("element_size must be positive (not NaN)")
        return max(1, self.vector_width_bits // 8 // element_size)

    @property
    def cycle_time_s(self) -> float:
        return 1.0 / self.frequency_hz


XEON_8260L = CPUSpec(
    name="Intel Xeon Platinum 8260L",
    cores=16,
    frequency_hz=2.4e9,
    vector_width_bits=256,
    vector_ports=2,
    l1i=CacheLevel("L1I", 32 * 1024, 64, 4),
    l1d=CacheLevel("L1D", 32 * 1024, 64, 4),
    l2=CacheLevel("L2", 1024 * 1024, 64, 14),
    llc=CacheLevel("LLC", 36 * 1024 * 1024, 64, 50),
    dram_latency_cycles=220,
    # Streaming restructuring thrashes the cache hierarchy (Sec. IV-A), so
    # the achievable per-core rate is well below peak DRAM bandwidth.
    core_stream_bandwidth=6.0e9,
    socket_stream_bandwidth=85.0e9,
)
