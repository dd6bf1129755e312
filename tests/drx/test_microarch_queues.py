"""Tests for DRX timing model, device occupancy, and data queues."""

import numpy as np
import pytest

from repro.drx import (
    DEFAULT_DRX,
    DRX_MEMORY_BYTES,
    MAX_ACCELERATORS,
    QUEUE_BYTES,
    DRXCompiler,
    DRXConfig,
    DRXDevice,
    DRXMemory,
    DRXTimingModel,
    DataQueue,
    FunctionalDRX,
    QueueFullError,
    QueuePartition,
    normalize_kernel,
)
from repro.profiles import WorkProfile
from repro.sim import Simulator
from repro.telemetry import Telemetry

MB = 1024 * 1024


def profile(ops_per_element=10.0, total_mb=12, vectorizable=1.0):
    bytes_total = total_mb * MB
    return WorkProfile(
        name="restructure",
        bytes_in=bytes_total * 2 // 3,
        bytes_out=bytes_total // 3,
        elements=bytes_total // 6,
        ops_per_element=ops_per_element,
        vectorizable_fraction=vectorizable,
    )


# -- config ------------------------------------------------------------------


def test_default_config_matches_paper():
    assert DEFAULT_DRX.lanes == 128
    assert DEFAULT_DRX.frequency_hz == pytest.approx(1e9)
    assert DEFAULT_DRX.scratchpad_bytes == 64 * 1024
    assert DEFAULT_DRX.dram_bandwidth == pytest.approx(25e9)
    assert DEFAULT_DRX.dram_bytes == 8 * 1024**3


def test_config_validation():
    with pytest.raises(ValueError):
        DRXConfig(lanes=0)
    with pytest.raises(ValueError):
        DRXConfig(compute_efficiency=1.5)
    with pytest.raises(ValueError):
        DRXConfig(dram_bandwidth=-1)


# -- timing ------------------------------------------------------------------


def test_memory_bound_profile_times_at_bandwidth():
    model = DRXTimingModel()
    p = profile(ops_per_element=1.0)  # memory-bound
    t = model.time_for_profile(p)
    expected = p.total_bytes / DEFAULT_DRX.dram_bandwidth
    assert t == pytest.approx(
        expected + DEFAULT_DRX.kernel_launch_overhead_s, rel=0.01
    )
    assert model.bound_for_profile(p) == "memory"


def test_compute_bound_profile_scales_with_lanes():
    p = profile(ops_per_element=400.0)  # compute-bound
    t128 = DRXTimingModel(DRXConfig(lanes=128)).time_for_profile(p)
    t32 = DRXTimingModel(DRXConfig(lanes=32)).time_for_profile(p)
    assert t32 == pytest.approx(4 * t128, rel=0.05)
    assert DRXTimingModel().bound_for_profile(p) == "compute"


def test_memory_bound_profile_insensitive_to_lanes():
    """Fig. 18's saturation mechanism: past the roofline knee, more lanes
    buy nothing."""
    p = profile(ops_per_element=1.0)
    t128 = DRXTimingModel(DRXConfig(lanes=128)).time_for_profile(p)
    t256 = DRXTimingModel(DRXConfig(lanes=256)).time_for_profile(p)
    assert t256 == pytest.approx(t128, rel=0.01)


def test_scalar_work_is_much_slower():
    vec = profile(ops_per_element=50.0, vectorizable=1.0)
    scalar = profile(ops_per_element=50.0, vectorizable=0.0)
    model = DRXTimingModel()
    assert model.time_for_profile(scalar) > 10 * model.time_for_profile(vec)


def test_time_from_stats_consistent_with_functional_run():
    kernel = normalize_kernel(100_000, 0.0, 2.0)
    program = DRXCompiler().compile(kernel)
    mem = DRXMemory()
    mem.bind("in", np.ones(100_000, dtype=np.float32))
    mem.allocate("out", 100_000, np.float32)
    drx = FunctionalDRX(mem)
    stats = drx.execute(program)
    t = DRXTimingModel().time_from_stats(stats)
    # 800 KB through 25 GB/s is ~32 us plus launch overhead.
    assert 2e-6 < t < 1e-3


def test_drx_device_serializes_jobs():
    sim = Simulator()
    device = DRXDevice(sim)
    ctx = Telemetry(sim).context()
    p = profile()
    done = []

    def job(sim):
        t = yield from device.restructure(p, ctx)
        done.append(sim.now)

    sim.spawn(job(sim))
    sim.spawn(job(sim))
    sim.run()
    solo = device.timing.time_for_profile(p)
    assert done[0] == pytest.approx(solo)
    assert done[1] == pytest.approx(2 * solo)
    assert device.jobs_completed == 2


# -- queues ------------------------------------------------------------------


def test_queue_capacity_provisioning_supports_40_accelerators():
    # Paper: 8 GB per DRX, 100 MB per RX/TX pair, up to 40 accelerators.
    from repro.drx.queues import QUEUE_PAIR_BYTES

    assert QUEUE_PAIR_BYTES == 100 * MB
    assert QUEUE_BYTES == 50 * MB
    assert DRX_MEMORY_BYTES == 8 * 1024**3
    assert MAX_ACCELERATORS == 40


def test_data_queue_enqueue_dequeue_fifo():
    q = DataQueue("q", capacity_bytes=1000)
    a = q.enqueue(300)
    b = q.enqueue(400)
    assert (a, b) == (0, 300)
    assert q.used_bytes == 700
    offset, size = q.dequeue()
    assert (offset, size) == (0, 300)
    assert q.free_bytes == 600


def test_data_queue_overflow_raises():
    q = DataQueue("q", capacity_bytes=100)
    q.enqueue(80)
    with pytest.raises(QueueFullError):
        q.enqueue(30)


def test_data_queue_validation():
    q = DataQueue("q")
    with pytest.raises(ValueError):
        q.enqueue(0)
    with pytest.raises(IndexError):
        q.dequeue()


def test_partition_creates_pair_per_peer():
    part = QueuePartition("drx0", ["accel0", "accel1"], ["drx1"])
    assert sorted(part.peers) == ["accel0", "accel1", "drx1"]
    assert part.rx_for("accel0") is not part.tx_for("accel0")
    with pytest.raises(KeyError):
        part.rx_for("stranger")


def test_partition_enforces_memory_budget():
    many_peers = [f"a{i}" for i in range(100)]
    with pytest.raises(MemoryError):
        QueuePartition("drx0", many_peers)
