"""Tests for the DMX system model (topology, modes, runs)."""

import pytest

from repro.accelerators.base import AcceleratorSpec
from repro.core import (
    AppChain,
    DMXSystem,
    KernelStage,
    Mode,
    MotionStage,
    SystemConfig,
)
from repro.profiles import WorkProfile

MB = 1024 * 1024
SPEC = AcceleratorSpec(name="accel", domain="d", speedup_vs_cpu=6.0)


def make_chain(i=0, in_mb=12, out_mb=6):
    profile = WorkProfile(
        name="motion", bytes_in=2 * in_mb * MB, bytes_out=out_mb * MB,
        elements=in_mb * MB // 4, ops_per_element=20.0, gather_fraction=0.3,
    )
    return AppChain(
        name=f"app{i}",
        stages=[
            KernelStage("k1", SPEC, cpu_time_s=5e-3, accel_time_s=1e-3,
                        output_bytes=in_mb * MB),
            MotionStage("m", profile, input_bytes=in_mb * MB,
                        output_bytes=out_mb * MB, cpu_threads=3),
            KernelStage("k2", SPEC, cpu_time_s=4e-3, accel_time_s=8e-4,
                        output_bytes=MB),
        ],
    )


def build(mode, n_apps=1, **config_kwargs):
    return DMXSystem(
        [make_chain(i) for i in range(n_apps)],
        SystemConfig(mode=mode, **config_kwargs),
    )


def test_system_requires_chains_and_unique_names():
    with pytest.raises(ValueError):
        DMXSystem([], SystemConfig())
    chain = make_chain(0)
    with pytest.raises(ValueError, match="unique"):
        DMXSystem([chain, make_chain(0)], SystemConfig())


def test_topology_accelerator_count():
    system = build(Mode.MULTI_AXL, n_apps=3)
    assert len(system.accel_devices) == 6  # two kernels per app
    assert not system.drx_devices


def test_topology_switch_fanout():
    system = build(Mode.MULTI_AXL, n_apps=5, accelerators_per_switch=4)
    # 10 accelerators over switches of 4 -> 3 switches.
    assert system.n_switches == 3


def test_bitw_creates_one_drx_per_accelerator():
    system = build(Mode.BUMP_IN_WIRE, n_apps=2)
    assert len(system.drx_devices) == 4
    assert "a0k0.drx" in system.drx_devices
    # The inline DRX reaches its accelerator over a private mux.
    links, hops = system.fabric.path("a0k0", "a0k0.drx")
    assert hops == 0 and len(links) == 1


def test_standalone_creates_one_card_per_app_pair():
    system = build(Mode.STANDALONE, n_apps=3)
    assert len(system.drx_devices) == 2  # large cards, 2 apps each
    system = build(Mode.STANDALONE, n_apps=8)
    assert len(system.drx_devices) == 4


def test_integrated_creates_single_shared_drx():
    system = build(Mode.INTEGRATED, n_apps=4)
    assert list(system.drx_devices) == ["drx.root"]


def test_pcie_integrated_creates_one_drx_per_switch():
    system = build(Mode.PCIE_INTEGRATED, n_apps=5, accelerators_per_switch=4)
    assert len(system.drx_devices) == system.n_switches


def test_latency_run_produces_all_records():
    system = build(Mode.MULTI_AXL, n_apps=2)
    result = system.run_latency(requests_per_app=3)
    assert len(result.records) == 6
    assert result.mean_latency() > 0
    assert set(result.apps()) == {"app0", "app1"}


def test_phase_fractions_sum_to_one():
    system = build(Mode.MULTI_AXL)
    result = system.run_latency(2)
    assert sum(result.phase_fractions().values()) == pytest.approx(1.0)


def test_multi_axl_restructuring_dominates():
    result = build(Mode.MULTI_AXL).run_latency(2)
    fractions = result.phase_fractions()
    assert fractions["restructuring"] > 0.5


def test_dmx_shrinks_restructuring_fraction():
    base = build(Mode.MULTI_AXL).run_latency(2)
    dmx = build(Mode.BUMP_IN_WIRE).run_latency(2)
    assert (
        dmx.phase_fractions()["restructuring"]
        < base.phase_fractions()["restructuring"]
    )
    assert dmx.mean_latency() < base.mean_latency()


def test_speedup_grows_with_concurrency():
    def speedup(n):
        base = build(Mode.MULTI_AXL, n_apps=n).run_latency(2)
        dmx = build(Mode.BUMP_IN_WIRE, n_apps=n).run_latency(2)
        return base.mean_latency() / dmx.mean_latency()

    assert speedup(8) > speedup(1)


def test_placement_ordering_at_load():
    """Paper: Integrated <= Standalone <= BITW <= PCIe-Integrated."""
    latencies = {}
    for mode in (Mode.INTEGRATED, Mode.STANDALONE, Mode.BUMP_IN_WIRE,
                 Mode.PCIE_INTEGRATED):
        latencies[mode] = build(mode, n_apps=8).run_latency(2).mean_latency()
    assert latencies[Mode.INTEGRATED] >= latencies[Mode.STANDALONE] * 0.98
    assert latencies[Mode.STANDALONE] >= latencies[Mode.BUMP_IN_WIRE] * 0.98
    # PCIe-Integrated saves only a round-trip over BITW (Sec. VII-B): the
    # two are nearly equal, with the exact winner profile-dependent.
    assert latencies[Mode.BUMP_IN_WIRE] >= latencies[Mode.PCIE_INTEGRATED] * 0.85


def test_all_cpu_moves_no_fabric_bytes():
    system = build(Mode.ALL_CPU)
    system.run_latency(2)
    assert system.bytes_moved() == 0


def test_baseline_moves_data_through_root():
    system = build(Mode.MULTI_AXL)
    system.run_latency(1)
    # Every request crosses accel.up + sw.up twice (in and out legs).
    assert system.bytes_moved() > 0
    upstream = system.fabric.nodes["sw0"].uplink
    assert upstream.bytes_moved > 0


def test_bitw_keeps_inbound_off_the_switch():
    system = build(Mode.BUMP_IN_WIRE)
    system.run_latency(1)
    upstream = system.fabric.nodes["sw0"].uplink
    # Only control never touches upstream for a same-switch chain; the
    # inbound leg uses the mux. Upstream carries nothing here.
    assert upstream.bytes_moved == 0


def test_throughput_run_overlaps_requests():
    lat = build(Mode.BUMP_IN_WIRE).run_latency(4)
    thr = build(Mode.BUMP_IN_WIRE).run_throughput(4)
    # Pipelined requests complete faster than end-to-end latency x count.
    assert thr.elapsed < lat.elapsed * 0.9
    assert thr.throughput() > 1.0 / lat.mean_latency()


def test_run_validates_request_count():
    with pytest.raises(ValueError):
        build(Mode.MULTI_AXL).run_latency(0)
    with pytest.raises(ValueError):
        build(Mode.MULTI_AXL).run_throughput(-1)


def test_energy_accounting_inputs_available():
    system = build(Mode.BUMP_IN_WIRE)
    system.run_latency(2)
    assert system.accelerator_busy_seconds() > 0
    assert system.drx_busy_seconds() > 0
    assert system.cpu.busy_seconds >= 0


# -- submit(): the external per-request entry point ---------------------------


def test_submit_returns_request_record():
    system = build(Mode.BUMP_IN_WIRE, n_apps=2)
    collected = []

    def client(app_index):
        record = yield from system.submit(app_index)
        collected.append(record)

    system.sim.spawn(client(0))
    system.sim.spawn(client(1))
    system.sim.run()
    assert len(collected) == 2
    assert {r.app for r in collected} == {"app0", "app1"}
    assert all(r.latency > 0 and not r.failed for r in collected)


def test_submit_matches_run_latency_timing():
    reference = build(Mode.BUMP_IN_WIRE).run_latency(1)

    system = build(Mode.BUMP_IN_WIRE)
    records = []

    def client():
        records.append((yield from system.submit(0)))

    system.sim.spawn(client())
    system.sim.run()
    assert records[0].latency == pytest.approx(reference.records[0].latency)
    assert records[0].phases == reference.records[0].phases


def test_submit_validates_app_index():
    system = build(Mode.MULTI_AXL)
    with pytest.raises(IndexError):
        system.sim.spawn(system.submit(5))
        system.sim.run()


def test_app_index_lookup():
    system = build(Mode.MULTI_AXL, n_apps=3)
    assert system.app_index("app2") == 2
    with pytest.raises(KeyError):
        system.app_index("nope")


# -- RunResult goodput accounting --------------------------------------------


def test_result_metrics_exclude_failed_requests_by_default():
    from repro.core.system import RequestRecord, RunResult

    ok = RequestRecord(app="a", start=0.0, end=1.0, phases={})
    bad = RequestRecord(app="a", start=0.0, end=9.0, phases={}, failed=True)
    result = RunResult(mode=Mode.MULTI_AXL, records=[ok, bad], elapsed=2.0,
                       requests_per_app=1)
    assert result.latencies() == [1.0]
    assert result.mean_latency() == pytest.approx(1.0)
    assert result.throughput() == pytest.approx(0.5)
    # Raw completion rate remains available.
    assert result.latencies(include_failed=True) == [1.0, 9.0]
    assert result.mean_latency(include_failed=True) == pytest.approx(5.0)
    assert result.throughput(include_failed=True) == pytest.approx(1.0)
    assert result.failure_count() == 1


def test_fused_profile_is_built_once_per_stage():
    from dataclasses import replace

    system = build(Mode.BUMP_IN_WIRE, n_apps=2)
    stages = [s for chain in system.chains for s in chain.stages
              if isinstance(s, MotionStage)]
    for stage in stages:
        fused = system._fused(stage)
        assert fused == replace(
            stage.profile,
            bytes_in=stage.input_bytes, bytes_out=stage.output_bytes,
        )
        assert system._fused(stage) is fused
    # Keyed by identity: an equal but distinct stage gets its own entry.
    twin = replace(stages[0])
    assert twin == stages[0] and twin is not stages[0]
    assert system._fused(twin) == system._fused(stages[0])
    assert system._fused(twin) is not system._fused(stages[0])


def test_fused_profile_honours_the_fusion_ablation(monkeypatch):
    from repro.core import system as system_module

    monkeypatch.setattr(system_module, "SCRATCHPAD_FUSION", False)
    system = build(Mode.BUMP_IN_WIRE)
    stage = system.chains[0].stages[1]
    assert system._fused(stage) is stage.profile
