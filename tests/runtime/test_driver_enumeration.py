"""Tests for the interrupt/polling driver model and PCIe enumeration."""

import pytest

from repro.cpu import HostCPU
from repro.interconnect import Fabric
from repro.runtime import (
    NotificationCosts,
    NotificationModel,
    enumerate_fabric,
)
from repro.sim import Simulator
from repro.telemetry import Telemetry


def make_model(sim=None, **cost_overrides):
    """A notification model and the root span context its deliveries
    record under."""
    sim = sim or Simulator()
    cpu = HostCPU(sim)
    costs = NotificationCosts(**cost_overrides)
    return sim, NotificationModel(sim, cpu, costs), Telemetry(sim).context()


def test_costs_validation():
    with pytest.raises(ValueError):
        NotificationCosts(interrupt_s=-1.0)
    with pytest.raises(ValueError):
        NotificationCosts(coalesce_window_s=0.0)


def test_sparse_notifications_take_full_interrupt_cost():
    sim, model, ctx = make_model()
    charged = []

    def proc(sim):
        for _ in range(3):
            cost = yield from model.notify("accel0", ctx)
            charged.append(cost)
            yield sim.timeout(1.0)  # slow arrival: no coalescing

    sim.spawn(proc(sim))
    sim.run()
    assert charged == [model.costs.interrupt_s] * 3
    assert model.stats.interrupts == 3
    assert model.stats.coalesced == 0


def test_burst_notifications_coalesce():
    sim, model, ctx = make_model()
    charged = []

    def proc(sim):
        for _ in range(4):
            cost = yield from model.notify("accel0", ctx)
            charged.append(cost)
            yield sim.timeout(1e-6)  # inside the coalescing window

    sim.spawn(proc(sim))
    sim.run()
    assert charged[0] == model.costs.interrupt_s
    assert all(c == model.costs.coalesced_s for c in charged[1:])


def test_sustained_high_rate_switches_to_polling():
    sim, model, ctx = make_model()

    def proc(sim):
        for _ in range(64):
            yield from model.notify("accel0", ctx)
            yield sim.timeout(2e-6)  # 500 kHz >> 50 kHz threshold

    sim.spawn(proc(sim))
    sim.run()
    assert model.is_polling("accel0")
    assert model.stats.polled > 0


def test_polling_mode_exits_with_hysteresis():
    sim, model, ctx = make_model()

    def proc(sim):
        for _ in range(64):
            yield from model.notify("accel0", ctx)
            yield sim.timeout(2e-6)
        # Rate collapses far below threshold/2.
        for _ in range(40):
            yield from model.notify("accel0", ctx)
            yield sim.timeout(0.01)

    sim.spawn(proc(sim))
    sim.run()
    assert not model.is_polling("accel0")


def test_per_device_rate_tracking_is_independent():
    sim, model, ctx = make_model()

    def fast(sim):
        for _ in range(64):
            yield from model.notify("hot", ctx)
            yield sim.timeout(2e-6)

    def slow(sim):
        for _ in range(5):
            yield from model.notify("cold", ctx)
            yield sim.timeout(0.5)

    sim.spawn(fast(sim))
    sim.spawn(slow(sim))
    sim.run()
    assert model.is_polling("hot")
    assert not model.is_polling("cold")


# -- enumeration ---------------------------------------------------------------


def build_fabric():
    sim = Simulator()
    fabric = Fabric(sim)
    sw0 = fabric.add_switch("sw0")
    sw1 = fabric.add_switch("sw1")
    fabric.add_endpoint("accel0", sw0)
    fabric.add_endpoint("accel1", sw0)
    fabric.add_inline("accel0.drx", "accel0")
    fabric.add_endpoint("accel2", sw1)
    fabric.add_endpoint("drx.standalone", sw1)
    return fabric


def test_enumeration_discovers_and_classifies():
    inventory = enumerate_fabric(build_fabric())
    names = {d.name for d in inventory.devices}
    assert names == {
        "accel0", "accel1", "accel0.drx", "accel2", "drx.standalone"
    }
    assert {d.name for d in inventory.accelerators} == {
        "accel0", "accel1", "accel2"
    }
    assert {d.name for d in inventory.drxs} == {
        "accel0.drx", "drx.standalone"
    }


def test_enumeration_assigns_bdf_addresses():
    inventory = enumerate_fabric(build_fabric())
    device = inventory.find("accel0")
    assert device.bdf.endswith(".0")
    buses = {d.bus for d in inventory.devices}
    assert len(buses) == 2  # one bus per switch


def test_enumeration_provisions_queue_partitions():
    inventory = enumerate_fabric(build_fabric())
    assert set(inventory.partitions) == {"accel0.drx", "drx.standalone"}
    partition = inventory.partitions["accel0.drx"]
    # Queues for all 3 accelerators plus the peer DRX.
    assert sorted(partition.peers) == [
        "accel0", "accel1", "accel2", "drx.standalone"
    ]


def test_enumeration_find_unknown_raises():
    inventory = enumerate_fabric(build_fabric())
    with pytest.raises(KeyError):
        inventory.find("ghost")


def test_enumeration_rejects_over_provisioned_fabric():
    sim = Simulator()
    fabric = Fabric(sim)
    switches = [fabric.add_switch(f"sw{i}") for i in range(6)]
    for i in range(42):  # over the 40-accelerator budget
        fabric.add_endpoint(f"accel{i}", switches[i // 8])
    fabric.add_endpoint("drx0", switches[5])
    with pytest.raises(MemoryError):
        enumerate_fabric(fabric)
