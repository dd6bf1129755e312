"""Tests for the system energy model."""

import pytest

from repro.energy import EnergyModel, EnergyParams


def evaluate(model=None, **overrides):
    base = dict(
        elapsed_s=1.0,
        cpu_busy_core_seconds=4.0,
        accelerator_busy_seconds=0.5,
        n_accelerators=2,
        drx_busy_seconds=0.2,
        n_drx_units=2,
        bytes_moved=100 * 1024 * 1024,
        n_switches=1,
    )
    base.update(overrides)
    return (model or EnergyModel()).evaluate(**base)


def test_params_validation():
    with pytest.raises(ValueError):
        EnergyParams(cpu_idle_w=-1.0)


@pytest.mark.parametrize("field", ["accelerator_idle_w", "drx_static_w"])
def test_idle_and_static_power_must_be_non_negative(field):
    """Both once went unchecked: a negative idle floor priced idle
    accelerators at negative joules."""
    with pytest.raises(ValueError, match=f"{field} must be non-negative"):
        EnergyParams(**{field: -4.0})
    EnergyParams(**{field: 0.0})  # no floor at all is allowed


def test_breakdown_components_positive_and_sum():
    breakdown = evaluate()
    parts = breakdown.as_dict()
    assert parts["total"] == pytest.approx(
        sum(v for k, v in parts.items() if k != "total")
    )
    assert all(v >= 0 for v in parts.values())


def test_cpu_energy_scales_with_busy_cores():
    idle = evaluate(cpu_busy_core_seconds=0.0)
    busy = evaluate(cpu_busy_core_seconds=8.0)
    params = EnergyParams()
    assert busy.cpu_j - idle.cpu_j == pytest.approx(
        8.0 * params.cpu_core_active_w
    )


def test_drx_static_power_scales_with_unit_count():
    few = evaluate(n_drx_units=2)
    many = evaluate(n_drx_units=30)
    params = EnergyParams()
    assert many.drx_j - few.drx_j == pytest.approx(28 * params.drx_static_w)


def test_pcie_energy_proportional_to_bytes():
    low = evaluate(bytes_moved=0)
    high = evaluate(bytes_moved=10**9)
    assert low.pcie_transfer_j == 0.0
    assert high.pcie_transfer_j == pytest.approx(
        EnergyParams().pcie_pj_per_byte * 1e-12 * 1e9
    )


def test_zero_elapsed_rejected():
    with pytest.raises(ValueError):
        evaluate(elapsed_s=0.0)


def test_evaluate_system_smoke():
    """End-to-end: run a small system and account its energy."""
    from repro.core import DMXSystem, Mode, SystemConfig
    from tests.core.test_system import make_chain

    system = DMXSystem([make_chain(0)], SystemConfig(mode=Mode.BUMP_IN_WIRE))
    system.run_latency(2)
    breakdown = EnergyModel().evaluate_system(system)
    assert breakdown.total_j > 0
    assert breakdown.drx_j > 0  # BITW has DRX units


def test_dmx_total_energy_below_baseline():
    """The headline Fig. 15 direction at the unit level."""
    from repro.core import DMXSystem, Mode, SystemConfig
    from tests.core.test_system import make_chain

    model = EnergyModel()
    energies = {}
    for mode in (Mode.MULTI_AXL, Mode.BUMP_IN_WIRE):
        system = DMXSystem(
            [make_chain(i) for i in range(4)], SystemConfig(mode=mode)
        )
        result = system.run_latency(2)
        energies[mode] = (
            model.evaluate_system(system).total_j / len(result.records)
        )
    assert energies[Mode.BUMP_IN_WIRE] < energies[Mode.MULTI_AXL]
