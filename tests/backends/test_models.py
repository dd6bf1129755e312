"""Unit tests for the backend timing models and their DES devices."""

import pytest

from repro.backends import (
    BACKEND_KINDS,
    CostEstimate,
    DSAConfig,
    DSADevice,
    PlannerConfig,
    XDMAConfig,
    XDMADevice,
)
from repro.core.chain import MotionStage
from repro.profiles import WorkProfile
from repro.sim import Simulator
from repro.telemetry import Telemetry

KB = 1024
MB = 1024 * 1024


def _profile(**kw):
    base = dict(
        name="p", bytes_in=40 * KB, bytes_out=40 * KB, elements=10 * KB,
        ops_per_element=2.0, branch_fraction=0.02, gather_fraction=0.0,
    )
    base.update(kw)
    return WorkProfile(**base)


# -- DSA -----------------------------------------------------------------


def test_dsa_submit_and_poll_costs_scale_per_member():
    cfg = DSAConfig()
    assert cfg.submit_time(1) == pytest.approx(
        cfg.portal_submit_s + cfg.descriptor_s
    )
    # Batch members ride the batch descriptor at the cheap rate.
    assert cfg.submit_time(4) == pytest.approx(
        cfg.portal_submit_s + cfg.descriptor_s + 3 * cfg.batch_descriptor_s
    )
    assert cfg.poll_time(3) == pytest.approx(
        cfg.completion_poll_s + 2 * cfg.poll_reap_s
    )


def test_dsa_job_time_is_a_roofline():
    cfg = DSAConfig()
    moved = _profile()  # byte-dominated
    assert cfg.job_time(moved) == pytest.approx(
        moved.total_bytes / cfg.move_bandwidth
    )
    compute = _profile(ops_per_element=64.0)  # op-dominated
    assert cfg.job_time(compute) == pytest.approx(
        compute.total_ops / cfg.transform_ops_per_s
    )


def test_dsa_config_validation():
    with pytest.raises(ValueError):
        DSAConfig(engines=0)
    with pytest.raises(ValueError):
        DSAConfig(move_bandwidth=0)
    with pytest.raises(ValueError):
        DSAConfig(portal_submit_s=-1e-9)


def test_dsa_device_serializes_on_the_shared_work_queue():
    sim = Simulator()
    cfg = DSAConfig(engines=1)
    dev = DSADevice(sim, cfg)
    ctx = Telemetry(sim).context()
    profile = _profile()
    done = []

    def job():
        yield from dev.process(profile, ctx)
        done.append(sim.now)

    sim.spawn(job())
    sim.spawn(job())
    sim.run()
    job_s = cfg.job_time(profile)
    assert done[0] == pytest.approx(job_s)
    assert done[1] == pytest.approx(2 * job_s)  # queued behind the first
    assert dev.jobs_completed == 2
    assert dev.busy_seconds == pytest.approx(2 * job_s)


# -- XDMA ----------------------------------------------------------------


def test_xdma_programming_does_not_amortize():
    cfg = XDMAConfig()
    assert cfg.program_time(1) == pytest.approx(cfg.program_s)
    # Every member carries its own transform spec — linear, not O(1).
    assert cfg.program_time(4) == pytest.approx(
        cfg.program_s + 3 * cfg.member_program_s
    )


def test_xdma_descriptor_expressibility_caps():
    cfg = XDMAConfig()

    def stage(profile, payload=1 * MB):
        return MotionStage("m", profile, input_bytes=payload,
                           output_bytes=payload)

    assert cfg.descriptor_expressible(stage(_profile()))
    assert not cfg.descriptor_expressible(
        stage(_profile(gather_fraction=cfg.max_gather_fraction + 0.01))
    )
    assert not cfg.descriptor_expressible(
        stage(_profile(branch_fraction=cfg.max_branch_fraction + 0.01))
    )
    assert not cfg.descriptor_expressible(
        stage(_profile(ops_per_element=cfg.max_ops_per_element + 1))
    )
    assert not cfg.descriptor_expressible(
        stage(_profile(), payload=cfg.max_payload_bytes + 1)
    )


def test_xdma_config_validation():
    with pytest.raises(ValueError):
        XDMAConfig(channels=0)
    with pytest.raises(ValueError):
        XDMAConfig(transform_bandwidth=0)
    with pytest.raises(ValueError):
        XDMAConfig(max_payload_bytes=0)


def test_xdma_device_overlaps_across_channels():
    sim = Simulator()
    cfg = XDMAConfig(channels=2)
    dev = XDMADevice(sim, cfg)
    ctx = Telemetry(sim).context()
    nbytes = 1 * MB
    done = []

    def job():
        yield from dev.transform(nbytes, ctx)
        done.append(sim.now)

    for _ in range(2):
        sim.spawn(job())
    sim.run()
    t = cfg.transform_time(nbytes)
    # Two channels: both finish together, no queueing.
    assert done == [pytest.approx(t), pytest.approx(t)]
    assert dev.jobs_completed == 2


# -- shared shapes -------------------------------------------------------


def test_cost_estimate_total_is_service_plus_queue():
    est = CostEstimate(service_s=2e-6, queue_s=3e-6, depth=4, energy_j=1e-6)
    assert est.total_s == pytest.approx(5e-6)


def test_planner_config_validation():
    with pytest.raises(ValueError):
        PlannerConfig(candidates=())
    with pytest.raises(ValueError):
        PlannerConfig(candidates=("gpu",))
    with pytest.raises(ValueError):
        PlannerConfig(candidates=("drx", "drx"))
    with pytest.raises(ValueError):
        PlannerConfig(queue_weight=-1.0)
    assert PlannerConfig().candidates == BACKEND_KINDS
