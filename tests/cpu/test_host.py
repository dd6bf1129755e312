"""Tests for the HostCPU DES device."""

import pytest

from repro.cpu import HostCPU, XEON_8260L
from repro.profiles import WorkProfile
from repro.sim import Simulator

MB = 1024 * 1024


def profile():
    return WorkProfile(
        name="restructure",
        bytes_in=8 * MB,
        bytes_out=4 * MB,
        elements=2_000_000,
        ops_per_element=10.0,
    )


def test_parallel_time_faster_than_serial():
    sim = Simulator()
    cpu = HostCPU(sim)
    p = profile()
    assert cpu.parallel_time(p, 8) < cpu.serial_time(p)


def test_parallel_time_has_diminishing_returns():
    sim = Simulator()
    cpu = HostCPU(sim)
    p = profile()
    t8 = cpu.parallel_time(p, 8)
    t16 = cpu.parallel_time(p, 16)
    # Still faster, but not 2x faster.
    assert t16 < t8
    assert t8 / t16 < 2.0


def test_parallel_time_clamps_to_max_threads():
    sim = Simulator()
    cpu = HostCPU(sim, max_threads=4)
    p = profile()
    assert cpu.parallel_time(p, 100) == pytest.approx(cpu.parallel_time(p, 4))


@pytest.mark.parametrize("max_threads", [0, -3, 2.5, float("inf")])
def test_max_threads_must_be_a_whole_number_of_at_least_one(max_threads):
    # 0 once meant every core, -3 serialized every job, and 2.5 priced
    # a 2.5-thread job and then died in ``range`` inside ``restructure``.
    with pytest.raises(ValueError, match="max_threads"):
        HostCPU(Simulator(), max_threads=max_threads)


def test_max_threads_none_means_every_core():
    p = profile()
    every_core = HostCPU(Simulator(), max_threads=None)
    assert every_core.max_threads == XEON_8260L.cores
    capped = HostCPU(Simulator(), max_threads=XEON_8260L.cores)
    assert every_core.parallel_time(p, 100) == capped.parallel_time(p, 100)


def test_restructure_single_job_latency_matches_parallel_time():
    sim = Simulator()
    cpu = HostCPU(sim)
    p = profile()
    results = []

    def job(sim):
        t = yield from cpu.restructure(p, threads=8)
        results.append(t)

    sim.spawn(job(sim))
    sim.run()
    assert results[0] == pytest.approx(cpu.parallel_time(p, 8))


def test_concurrent_jobs_contend_for_cores():
    """Many jobs, each wanting all 16 cores: latency grows with load."""
    sim = Simulator()
    cpu = HostCPU(sim)
    p = profile()
    latencies = []

    def job(sim):
        t = yield from cpu.restructure(p, threads=16)
        latencies.append(t)

    for _ in range(4):
        sim.spawn(job(sim))
    sim.run()
    solo = cpu.parallel_time(p, 16)
    # Four full-width jobs over one core pool serialize roughly 4x.
    assert max(latencies) > 3.0 * solo
    assert cpu.restructure_jobs == 4


def test_single_thread_restructure_uses_serial_time():
    sim = Simulator()
    cpu = HostCPU(sim)
    p = profile()
    out = []

    def job(sim):
        t = yield from cpu.restructure(p, threads=1)
        out.append(t)

    sim.spawn(job(sim))
    sim.run()
    assert out[0] == pytest.approx(cpu.serial_time(p))


def test_run_kernel_occupies_cores_for_duration():
    sim = Simulator()
    cpu = HostCPU(sim)
    out = []

    def job(sim):
        t = yield from cpu.run_kernel(0.5, threads=2)
        out.append(t)

    sim.spawn(job(sim))
    sim.run()
    assert out[0] == pytest.approx(0.5)
    assert cpu.busy_seconds == pytest.approx(1.0)  # 2 cores x 0.5 s


def test_run_kernel_rejects_negative_duration():
    sim = Simulator()
    cpu = HostCPU(sim)

    def job(sim):
        yield from cpu.run_kernel(-1.0)

    sim.spawn(job(sim))
    with pytest.raises(ValueError):
        sim.run()


def test_queued_core_work_is_granted_in_arrival_order():
    """The core pool is FIFO: with every core busy, the job that queued
    first runs first."""
    sim = Simulator()
    cpu = HostCPU(sim, spec=XEON_8260L)
    order = []

    def hog(sim):
        # Fill all 16 cores for a long time, then queue two more jobs.
        yield from cpu.run_kernel(1.0, threads=16)

    def job(sim, name, at_s):
        yield sim.timeout(at_s)
        yield from cpu.run_kernel(0.5, threads=1)
        order.append((name, sim.now))

    sim.spawn(hog(sim))
    sim.spawn(job(sim, "first", 0.1))
    sim.spawn(job(sim, "second", 0.2))
    sim.run()
    assert order == [("first", 1.5), ("second", 1.5)]
    assert cpu.cores.queue_length == 0


def test_utilization_reflects_busy_cores():
    sim = Simulator()
    cpu = HostCPU(sim)

    def job(sim):
        yield from cpu.run_kernel(1.0, threads=8)
        yield sim.timeout(1.0)

    sim.spawn(job(sim))
    sim.run()
    # 8 of 16 cores busy for half the elapsed 2 s => 25%.
    assert cpu.utilization() == pytest.approx(0.25, rel=0.01)


def test_negative_parallel_overhead_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        HostCPU(sim, parallel_overhead=-0.1)


def _uncached_serial_time(cpu, profile):
    """The top-down model plus bandwidth floor, computed from scratch."""
    cycle_time = cpu.topdown.runtime_seconds(profile)
    effective_bw = cpu.spec.core_stream_bandwidth * (
        1.0 - 0.8 * profile.gather_fraction
    )
    return max(cycle_time, profile.total_bytes / effective_bw)


def test_memoized_serial_time_equals_the_uncached_model():
    """Every motion profile of the five benchmark apps, first call and
    cached call alike, prices exactly as the model computed afresh."""
    from repro.core import MotionStage
    from repro.workloads import benchmark_names, build_benchmark_chains

    cpu = HostCPU(Simulator())
    profiles = [
        stage.profile
        for name in benchmark_names()
        for stage in build_benchmark_chains(name, 1)[0].stages
        if isinstance(stage, MotionStage)
    ]
    assert len(profiles) >= 5
    for p in profiles:
        expected = _uncached_serial_time(cpu, p)
        assert cpu.serial_time(p) == expected
        assert cpu.serial_time(p) == expected  # served from the memo
        for threads in (1, 3, 16):
            serial = expected
            scaled = serial / threads * (
                1.0 + cpu.parallel_overhead * (threads - 1)
            )
            floor = p.total_bytes / cpu.spec.socket_stream_bandwidth
            spawn = cpu.spawn_overhead_s if threads > 1 else 0.0
            assert cpu.parallel_time(p, threads) == max(scaled, floor) + spawn
