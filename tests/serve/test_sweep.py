"""Load sweeps: knee queries, determinism, fault integration."""

import hashlib
from dataclasses import replace

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
from repro.drx.microarch import DRXConfig
from repro.faults import FaultPlan, FaultPolicy
from repro.profiles import WorkProfile
from repro.serve import (
    ShedPolicy,
    SweepConfig,
    SweepPoint,
    SweepResult,
    calibrate_peak_rps,
    run_sweep,
    unloaded_latency,
)
from repro.telemetry import (
    AlertConfig,
    ObservationConfig,
    RollupConfig,
    SamplingConfig,
)
from repro.workloads import build_benchmark_chains

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


def factory():
    return [make_chain(i) for i in range(2)]


def small_config(**overrides):
    defaults = dict(
        offered_loads_rps=(40.0, 160.0),
        chain_factory=factory,
        requests_per_tenant=10,
        slo_s=50e-3,
        modes=(Mode.MULTI_AXL, Mode.BUMP_IN_WIRE),
        sample_period_s=None,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def test_sweep_covers_the_grid():
    config = small_config()
    result = run_sweep(config)
    assert len(result.points) == 4  # 2 modes x 2 loads
    for mode in config.modes:
        curve = result.p99_curve(mode)
        assert [load for load, _ in curve] == [40.0, 160.0]
        assert all(p99 > 0 for _, p99 in curve)


def test_same_seed_byte_identical_sweep():
    config = small_config()
    first = run_sweep(config)
    second = run_sweep(config)
    assert first.to_json() == second.to_json()


def test_different_seed_changes_the_sweep():
    first = run_sweep(small_config(seed=1))
    second = run_sweep(small_config(seed=2))
    assert first.to_json() != second.to_json()


def test_knee_rps_scans_to_first_violation():
    result = SweepResult(slo_s=10e-3, seed=0)

    def point(mode, load, p99):
        return SweepPoint(
            mode=mode, offered_rps=load, p50_s=p99, p95_s=p99, p99_s=p99,
            mean_s=p99, mean_queue_wait_s=0.0, goodput_rps=load,
            completed=1, shed=0, violations=0, failed=0,
            max_queue_depth=0, elapsed_s=1.0,
        )

    result.points = [
        point("dmx", 100.0, 5e-3),
        point("dmx", 200.0, 8e-3),
        point("dmx", 400.0, 20e-3),   # first violation
        point("dmx", 800.0, 9e-3),    # past the break: ignored
        point("cpu", 100.0, 20e-3),   # violates immediately
    ]
    assert result.knee_rps("dmx") == 200.0
    assert result.knee_rps("cpu") == 0.0
    assert result.modes() == ["dmx", "cpu"]


def test_sweep_with_faults_armed_completes_and_replays():
    plan = FaultPlan(
        seed=42,
        dma=FaultPolicy(fail_p=0.10),
        drx=FaultPolicy(hang_p=0.05),
        drx_deadline_s=30e-3,
    )
    config = small_config(
        offered_loads_rps=(40.0,), modes=(Mode.STANDALONE,), faults=plan,
        slo_s=100e-3,
    )
    result = run_sweep(config)
    point = result.points[0]
    assert point.completed == 20  # nothing lost under faults
    assert run_sweep(config).to_json() == result.to_json()


def test_shedding_sweep_counts_rejections():
    config = small_config(
        offered_loads_rps=(4000.0,), modes=(Mode.MULTI_AXL,),
        shed=ShedPolicy.REJECT, queue_capacity=2, max_inflight=1,
        requests_per_tenant=25,
    )
    point = run_sweep(config).points[0]
    assert point.shed > 0
    assert point.completed + point.shed == 50


#: SHA-256 of a two-mode, two-load sweep's ``to_json()`` and of every
#: artifact and trace file it writes with observation and sampling
#: armed. A refactor of the experiment drivers must keep every byte; a
#: change that moves serving output on purpose recaptures them together.
SWEEP_ARTIFACT_GOLDEN_SHA256 = {
    "to_json": (
        "8b1cab2ce40ee7816b20d88a81b6be52915cf979f59eb9777a03cdd2dc4c6447"
    ),
    "bump-in-the-wire-drx-pt0.jsonl": (
        "8d71409e13adba83dd84726af6c8202179c18e5df738a1408cde148c709f3054"
    ),
    "bump-in-the-wire-drx-pt0.trace.json": (
        "e5d86e7bd816e59381b15ad69d85af6ca238e6e1ddf578b69e25e11b1d342860"
    ),
    "bump-in-the-wire-drx-pt1.jsonl": (
        "5eb056718d58b2c09dc10e2f4d491744e4159b949c25f31218e70335b1c88976"
    ),
    "bump-in-the-wire-drx-pt1.trace.json": (
        "94c6e5115fd64485e42eacb8d9e797016e212aa7efd51fbb8778df32e596e9e0"
    ),
    "multi-axl-pt0.jsonl": (
        "7e370152e8acf2bb69beda09a578d9ed831a8b120fce91ec01b0bb0b65131d05"
    ),
    "multi-axl-pt0.trace.json": (
        "a993e1799264f22423445177b4244afcf39c41f0cb7e3a7ce534f8470a687281"
    ),
    "multi-axl-pt1.jsonl": (
        "c4947f43c5864c50a7028bee1d8b881a62bcfa795a9a3cee4c6f78c58fa62615"
    ),
    "multi-axl-pt1.trace.json": (
        "2e82f3fceec46d8e203ea466392cf4f505d3a03a2dd7ec874263619ce22c22c5"
    ),
}


def test_armed_sweep_and_artifacts_match_golden(tmp_path):
    result = run_sweep(small_config(
        artifact_dir=str(tmp_path),
        observation=ObservationConfig(
            rollup=RollupConfig(window_s=10e-3), alerts=AlertConfig()
        ),
        sampling=SamplingConfig(keep_fraction=0.5, seed=1),
    ))
    digests = {
        "to_json": hashlib.sha256(result.to_json().encode()).hexdigest(),
    }
    for path in tmp_path.iterdir():
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == SWEEP_ARTIFACT_GOLDEN_SHA256


def test_calibration_helpers_order_sanely():
    config = small_config()
    dmx_peak = calibrate_peak_rps(config, Mode.BUMP_IN_WIRE)
    axl_peak = calibrate_peak_rps(config, Mode.MULTI_AXL)
    assert dmx_peak > axl_peak > 0
    dmx_floor = unloaded_latency(config, Mode.BUMP_IN_WIRE)
    axl_floor = unloaded_latency(config, Mode.MULTI_AXL)
    assert 0 < dmx_floor < axl_floor


def test_calibration_probes_the_configured_system():
    """Both probes run the sweep's own hardware, ``system`` in the probed
    mode, as every grid point does: an 8-lane DRX drains slower and
    answers later than the default one."""
    base = SystemConfig(drx=DRXConfig(lanes=8))
    config = SweepConfig(offered_loads_rps=(1.0,), system=base)
    mode = Mode.BUMP_IN_WIRE

    def system():
        return DMXSystem(
            build_benchmark_chains("sound-detection", 2),
            replace(base, mode=mode),
        )

    peak = system().run_throughput(requests_per_app=8).throughput()
    floor = system().run_latency(requests_per_app=2).mean_latency()
    default = SweepConfig(offered_loads_rps=(1.0,))
    assert peak < calibrate_peak_rps(default, mode)
    assert floor > unloaded_latency(default, mode)
    assert calibrate_peak_rps(config, mode) == peak
    assert unloaded_latency(config, mode) == floor


def test_config_validation():
    with pytest.raises(ValueError, match="at least one offered load"):
        SweepConfig(offered_loads_rps=())
    with pytest.raises(ValueError, match="ascending"):
        SweepConfig(offered_loads_rps=(100.0, 50.0))
    with pytest.raises(ValueError, match="positive"):
        SweepConfig(offered_loads_rps=(-1.0,))
    with pytest.raises(ValueError):
        SweepConfig(offered_loads_rps=(1.0,), slo_s=0.0)
    with pytest.raises(ValueError):
        SweepConfig(offered_loads_rps=(1.0,), modes=())
