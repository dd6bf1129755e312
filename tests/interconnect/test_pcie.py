"""Unit tests for the PCIe link model."""

import pytest

from repro.interconnect import GB, MB, LinkConfig, PCIeGen, PCIeLink
from repro.sim import Simulator


def test_gen3_per_lane_bandwidth_close_to_standard():
    # Gen3 is 8 GT/s with 128b/130b: ~0.985 GB/s per lane raw.
    assert PCIeGen.GEN3.raw_gbps_per_lane == pytest.approx(0.985, rel=0.01)


def test_generation_bandwidth_doubles_each_gen():
    g3 = PCIeGen.GEN3.raw_gbps_per_lane
    g4 = PCIeGen.GEN4.raw_gbps_per_lane
    g5 = PCIeGen.GEN5.raw_gbps_per_lane
    assert g4 == pytest.approx(2 * g3)
    assert g5 == pytest.approx(4 * g3)


def test_x8_gen3_effective_bandwidth_in_expected_range():
    config = LinkConfig(gen=PCIeGen.GEN3, lanes=8)
    bw = config.bandwidth_bytes_per_s
    # Raw x8 Gen3 is ~7.9 GB/s; with 0.85 protocol efficiency ~6.7 GB/s.
    assert 6.0e9 < bw < 7.2e9


def test_lane_count_validation():
    with pytest.raises(ValueError):
        LinkConfig(lanes=3)


def test_protocol_efficiency_validation():
    with pytest.raises(ValueError):
        LinkConfig(protocol_efficiency=0.0)
    with pytest.raises(ValueError):
        LinkConfig(protocol_efficiency=1.5)


def test_transfer_time_scales_linearly_with_size():
    sim = Simulator()
    link = PCIeLink(sim, LinkConfig(propagation_latency_s=0.0))
    t1 = link.transfer_time(1 * MB)
    t2 = link.transfer_time(2 * MB)
    assert t2 == pytest.approx(2 * t1)


def test_transfer_time_includes_propagation_latency():
    sim = Simulator()
    link = PCIeLink(sim, LinkConfig(propagation_latency_s=1e-6))
    assert link.transfer_time(0) == pytest.approx(1e-6)


def test_negative_transfer_size_rejected():
    sim = Simulator()
    link = PCIeLink(sim, LinkConfig())
    with pytest.raises(ValueError):
        link.transfer_time(-1)


def test_wider_link_is_proportionally_faster():
    sim = Simulator()
    narrow = PCIeLink(sim, LinkConfig(lanes=4, propagation_latency_s=0.0))
    wide = PCIeLink(sim, LinkConfig(lanes=16, propagation_latency_s=0.0))
    assert narrow.transfer_time(GB) == pytest.approx(4 * wide.transfer_time(GB))


def test_gen5_transfer_four_times_faster_than_gen3():
    sim = Simulator()
    g3 = PCIeLink(sim, LinkConfig(gen=PCIeGen.GEN3, propagation_latency_s=0.0))
    g5 = PCIeLink(sim, LinkConfig(gen=PCIeGen.GEN5, propagation_latency_s=0.0))
    assert g3.transfer_time(GB) == pytest.approx(4 * g5.transfer_time(GB))
