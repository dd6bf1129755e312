"""Tests for application chains and profile merging."""

import pytest

from repro.accelerators.base import AcceleratorSpec
from repro.core import AppChain, KernelStage, MotionStage, merge_profiles
from repro.profiles import WorkProfile

MB = 1024 * 1024
SPEC = AcceleratorSpec(name="accel", domain="d", speedup_vs_cpu=5.0)


def kernel(name="k", cpu=1e-3, accel=2e-4, out=MB):
    return KernelStage(name, SPEC, cpu_time_s=cpu, accel_time_s=accel,
                       output_bytes=out)


def motion(name="m", in_bytes=MB, out_bytes=MB):
    profile = WorkProfile(name=name, bytes_in=in_bytes, bytes_out=out_bytes,
                          elements=in_bytes // 4, ops_per_element=4.0)
    return MotionStage(name, profile, input_bytes=in_bytes,
                       output_bytes=out_bytes)


def test_kernel_stage_validation():
    with pytest.raises(ValueError):
        kernel(cpu=-1.0)
    with pytest.raises(ValueError):
        kernel(out=0)
    with pytest.raises(ValueError, match="slower than CPU"):
        KernelStage("bad", SPEC, cpu_time_s=1e-4, accel_time_s=1e-3,
                    output_bytes=MB)


@pytest.mark.parametrize("threads", [0, -2])
def test_motion_stage_rejects_fewer_than_one_cpu_thread(threads):
    """A zero-thread stage used to be priced by the CPU backend as a
    1-thread job while HostCPU.restructure fanned it out to every core
    (``threads or max_threads``), so bid and execution disagreed."""
    profile = WorkProfile(name="m", bytes_in=MB, bytes_out=MB,
                          elements=MB // 4, ops_per_element=4.0)
    with pytest.raises(ValueError, match="m-stage: cpu_threads"):
        MotionStage("m-stage", profile, input_bytes=MB, output_bytes=MB,
                    cpu_threads=threads)


def test_kernel_serial_time_defaults_to_three_x():
    stage = kernel(cpu=3e-3)
    assert stage.cpu_serial_time_s == pytest.approx(9e-3)


def test_kernel_serial_time_must_exceed_parallel():
    with pytest.raises(ValueError, match="serial"):
        KernelStage("bad", SPEC, cpu_time_s=1e-3, accel_time_s=1e-4,
                    output_bytes=MB, cpu_serial_time_s=5e-4)


def test_kernel_cpu_latency_scales_down_with_threads():
    stage = kernel(cpu=1e-3)
    assert stage.cpu_latency(1) == pytest.approx(stage.cpu_serial_time_s)
    assert stage.cpu_latency(8) < stage.cpu_latency(2)
    # Sub-linear: 8 threads is not 8x faster.
    assert stage.cpu_latency(1) / stage.cpu_latency(8) < 8


def test_chain_validation_accepts_alternating():
    chain = AppChain("app", [kernel("k1"), motion(), kernel("k2")])
    chain.validate()
    assert chain.n_accelerators == 2
    assert len(chain.motion_stages) == 1


def test_chain_rejects_bad_shapes():
    with pytest.raises(ValueError):
        AppChain("short", [kernel()]).validate()
    with pytest.raises(ValueError):
        AppChain("two-kernels", [kernel(), kernel(), kernel()]).validate()
    with pytest.raises(ValueError):
        AppChain("ends-motion",
                 [kernel(), motion(), kernel(), motion()]).validate()


def test_three_kernel_chain_is_valid():
    chain = AppChain(
        "ner",
        [kernel("k1"), motion("m1"), kernel("k2"), motion("m2"),
         kernel("k3")],
    )
    chain.validate()
    assert chain.n_accelerators == 3


def test_scale_batches_scales_everything():
    chain = AppChain("app", [kernel(), motion(), kernel()])
    scaled = chain.scale_batches(2.0)
    k = scaled.kernel_stages[0]
    m = scaled.motion_stages[0]
    assert k.accel_time_s == pytest.approx(2 * 2e-4)
    assert k.cpu_serial_time_s == pytest.approx(2 * 3e-3)
    assert m.input_bytes == 2 * MB
    assert m.profile.bytes_in == 2 * MB
    with pytest.raises(ValueError):
        chain.scale_batches(0)


def test_merge_profiles_sums_volume():
    p1 = WorkProfile("a", bytes_in=MB, bytes_out=MB, elements=1000,
                     ops_per_element=2.0)
    p2 = WorkProfile("b", bytes_in=MB, bytes_out=2 * MB, elements=500,
                     ops_per_element=8.0)
    merged = merge_profiles([p1, p2], "merged")
    assert merged.bytes_in == 2 * MB
    assert merged.bytes_out == 3 * MB
    assert merged.elements == 1500
    assert merged.total_ops == pytest.approx(p1.total_ops + p2.total_ops)


def test_merge_profiles_weights_character_by_ops():
    light = WorkProfile("light", bytes_in=MB, bytes_out=MB, elements=100,
                        ops_per_element=1.0, gather_fraction=0.0)
    heavy = WorkProfile("heavy", bytes_in=MB, bytes_out=MB, elements=100,
                        ops_per_element=99.0, gather_fraction=1.0)
    merged = merge_profiles([light, heavy], "merged")
    assert merged.gather_fraction == pytest.approx(0.99)


def test_merge_profiles_rejects_empty():
    with pytest.raises(ValueError):
        merge_profiles([], "none")
