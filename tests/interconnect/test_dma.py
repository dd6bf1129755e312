"""Unit tests for the DMA engine software-overhead model."""

import pytest

from repro.interconnect import DMACosts, DMAEngine, Fabric, MB
from repro.sim import Simulator
from repro.telemetry import Telemetry


def make_fabric(sim):
    fabric = Fabric(sim)
    sw = fabric.add_switch("sw0")
    fabric.add_endpoint("a", sw)
    fabric.add_endpoint("b", sw)
    return fabric


def root_ctx(sim):
    """A run's root span context: every DMA records a span in one."""
    return Telemetry(sim).context()


def test_dma_charges_setup_and_completion():
    sim = Simulator()
    fabric = make_fabric(sim)
    costs = DMACosts(setup_s=5e-6, completion_interrupt_s=3e-6)
    dma = DMAEngine(sim, fabric, costs)
    ctx = root_ctx(sim)
    elapsed = []

    def proc(sim):
        t = yield from dma.transfer("a", "b", MB, ctx)
        elapsed.append(t)

    sim.spawn(proc(sim))
    sim.run()
    fabric_only = fabric.unloaded_latency("a", "b", MB)
    assert elapsed[0] == pytest.approx(fabric_only + 5e-6 + 3e-6)


def test_dma_overheads_can_be_waived_for_chained_descriptors():
    sim = Simulator()
    fabric = make_fabric(sim)
    costs = DMACosts(setup_s=5e-6, completion_interrupt_s=3e-6)
    dma = DMAEngine(sim, fabric, costs)
    ctx = root_ctx(sim)
    elapsed = []

    def proc(sim):
        t = yield from dma.transfer(
            "a", "b", MB, ctx, charge_setup=False, charge_completion=False
        )
        elapsed.append(t)

    sim.spawn(proc(sim))
    sim.run()
    assert elapsed[0] == pytest.approx(fabric.unloaded_latency("a", "b", MB))


def test_dma_statistics_accumulate():
    sim = Simulator()
    fabric = make_fabric(sim)
    dma = DMAEngine(sim, fabric)
    ctx = root_ctx(sim)

    def proc(sim):
        yield from dma.transfer("a", "b", MB, ctx)
        yield from dma.transfer("b", "a", 2 * MB, ctx)

    sim.spawn(proc(sim))
    sim.run()
    assert dma.transfers_completed == 2
    assert dma.bytes_transferred == 3 * MB


def test_negative_dma_size_rejected():
    sim = Simulator()
    fabric = make_fabric(sim)
    dma = DMAEngine(sim, fabric)
    ctx = root_ctx(sim)

    def proc(sim):
        yield from dma.transfer("a", "b", -1, ctx)

    sim.spawn(proc(sim))
    with pytest.raises(ValueError):
        sim.run()


def test_negative_cost_rejected():
    with pytest.raises(ValueError):
        DMACosts(setup_s=-1e-6)


def test_unloaded_latency_estimate_matches_simulation():
    sim = Simulator()
    fabric = make_fabric(sim)
    dma = DMAEngine(sim, fabric)
    ctx = root_ctx(sim)
    got = []

    def proc(sim):
        t = yield from dma.transfer("a", "b", 4 * MB, ctx)
        got.append(t)

    sim.spawn(proc(sim))
    sim.run()
    assert got[0] == pytest.approx(dma.unloaded_latency("a", "b", 4 * MB))
