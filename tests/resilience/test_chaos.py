"""Chaos sweep: plan scaling, cliff queries, and the end-to-end grid."""

import hashlib
import json

import pytest

from repro.accelerators.base import AcceleratorSpec
from repro.backends import BACKEND_DSA, BACKEND_XDMA
from repro.core import AppChain, KernelStage, MotionStage
from repro.faults import FaultPlan, FaultPolicy
from repro.profiles import WorkProfile
from repro.resilience import (
    BreakerConfig,
    ChaosPoint,
    ChaosSweepConfig,
    ChaosSweepResult,
    DEFAULT_CHAOS_PLAN,
    ResilienceConfig,
    run_chaos_sweep,
    scale_plan,
)
from repro.telemetry import validate_artifact

from ..backends.test_planner_system import (
    KB,
    _affine,
    _chain,
    _gathery,
    _system,
)

MB = 1024 * 1024
SPEC = AcceleratorSpec(name="accel", domain="d", speedup_vs_cpu=6.0)


def make_chains():
    def chain(i):
        profile = WorkProfile(
            name="motion", bytes_in=8 * MB, bytes_out=2 * MB,
            elements=MB, ops_per_element=20.0, gather_fraction=0.3,
        )
        return AppChain(
            name=f"app{i}",
            stages=[
                KernelStage("k1", SPEC, cpu_time_s=2e-3, accel_time_s=5e-4,
                            output_bytes=4 * MB),
                MotionStage("m", profile, input_bytes=4 * MB,
                            output_bytes=2 * MB, cpu_threads=3),
                KernelStage("k2", SPEC, cpu_time_s=1e-3, accel_time_s=4e-4,
                            output_bytes=MB),
            ],
        )

    return [chain(i) for i in range(2)]


TINY = dict(
    offered_loads_rps=(40.0, 120.0),
    fault_intensities=(1.0,),
    requests_per_tenant=10,
    chain_factory=make_chains,
    resilience=ResilienceConfig(
        seed=1,
        breaker=BreakerConfig(cooldown_s=100.0, cooldown_cap_s=100.0),
    ),
    slo_s=60e-3,
    seed=3,
)


# -- scale_plan ----------------------------------------------------------------


def test_scale_plan_scales_every_site():
    plan = FaultPlan(
        seed=9,
        dma=FaultPolicy(fail_p=0.1),
        drx=FaultPolicy(hang_p=0.2),
        kernel=FaultPolicy(delay_p=0.3),
        drx_deadline_s=30e-3,
    )
    half = scale_plan(plan, 0.5)
    assert half.dma.fail_p == pytest.approx(0.05)
    assert half.drx.hang_p == pytest.approx(0.1)
    assert half.kernel.delay_p == pytest.approx(0.15)
    # Determinism knobs and budgets ride along untouched.
    assert half.seed == plan.seed
    assert half.drx_deadline_s == plan.drx_deadline_s


def test_scale_plan_zero_intensity_injects_nothing():
    quiet = scale_plan(DEFAULT_CHAOS_PLAN, 0.0)
    assert quiet.drx.hang_p == 0.0
    assert quiet.dma.fail_p == 0.0


@pytest.mark.parametrize(
    "kind,profile_of", [(BACKEND_DSA, _gathery), (BACKEND_XDMA, _affine)]
)
def test_scale_plan_zero_intensity_quiets_the_planner_sites(kind, profile_of):
    """At intensity 0 a leg the planner sends to a DSA or XDMA engine
    runs there: the plan injects no fault that would push it to CPU (a
    backend's fault site is named after its kind)."""
    payload = 64 * KB
    quiet = scale_plan(FaultPlan(**{kind: FaultPolicy(fail_p=1.0)}), 0.0)
    assert not any(p.active for p in quiet.site_policies().values())
    system = _system(
        _chain(payload, profile_of(payload)), candidates=(kind,),
        faults=quiet,
    )
    (record,) = system.run_latency(requests_per_app=1).records
    assert system.injector.injected_count() == 0
    assert record.backend == [kind]
    assert not record.fell_back


def test_scale_plan_normalizes_overflowing_probabilities():
    plan = FaultPlan(seed=0, drx=FaultPolicy(fail_p=0.4, hang_p=0.4))
    hot = scale_plan(plan, 2.0)
    assert hot.drx.fail_p + hot.drx.hang_p == pytest.approx(1.0)
    assert hot.drx.fail_p == pytest.approx(0.5)


def test_scale_plan_rejects_negative_intensity():
    with pytest.raises(ValueError):
        scale_plan(DEFAULT_CHAOS_PLAN, -0.1)


# -- cliff queries on synthetic points -----------------------------------------


def synthetic(goodputs, control_plane=False, floor=0.7):
    result = ChaosSweepResult(slo_s=50e-3, seed=0, goodput_floor=floor)
    for load, goodput in goodputs:
        result.points.append(ChaosPoint(
            control_plane=control_plane, intensity=1.0, offered_rps=load,
            goodput_rps=goodput, p50_s=0.0, p99_s=0.0, completed=0,
            failed=0, violations=0, shed=0, retries=0, fallbacks=0,
            rerouted=0, elapsed_s=1.0,
        ))
    return result


def test_cliff_is_last_load_before_first_miss():
    result = synthetic([(10, 10), (20, 18), (40, 20), (80, 70)])
    # 40 rps only yields 20 (< 0.7*40): the cliff is at 20, and the
    # recovering point at 80 does not un-ring the bell.
    assert result.goodput_cliff_rps(1.0, False) == 20
    # A looser floor (0.5): 40 rps yielding 20 just sustains, and the
    # whole curve holds — the cliff is the last grid point.
    assert result.goodput_cliff_rps(1.0, False, floor=0.5) == 80


def test_cliff_zero_when_lightest_load_misses():
    result = synthetic([(10, 1), (20, 1)])
    assert result.goodput_cliff_rps(1.0, False) == 0.0


def test_cliff_shift_subtracts_arms():
    result = synthetic([(10, 10), (20, 5)], control_plane=False)
    for point in synthetic([(10, 10), (20, 19)], control_plane=True).points:
        result.points.append(point)
    assert result.cliff_shift_rps(1.0) == 10.0


# -- config validation ---------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ChaosSweepConfig(offered_loads_rps=())
    with pytest.raises(ValueError):
        ChaosSweepConfig(offered_loads_rps=(20.0, 10.0))  # not ascending
    with pytest.raises(ValueError):
        ChaosSweepConfig(offered_loads_rps=(10.0,), fault_intensities=())
    with pytest.raises(ValueError):
        ChaosSweepConfig(offered_loads_rps=(10.0,),
                         fault_intensities=(-1.0,))
    with pytest.raises(ValueError):
        ChaosSweepConfig(offered_loads_rps=(10.0,), control_plane=())


# -- the end-to-end grid -------------------------------------------------------


def test_tiny_grid_runs_both_arms():
    result = run_chaos_sweep(ChaosSweepConfig(**TINY))
    assert len(result.points) == 4  # 2 loads x 1 intensity x 2 arms
    assert result.intensities() == [1.0]
    baseline = result.cell(1.0, False)
    resilient = result.cell(1.0, True)
    assert [p.offered_rps for p in baseline] == [40.0, 120.0]
    assert [p.offered_rps for p in resilient] == [40.0, 120.0]
    # Same faults, but only the resilient arm reroutes.
    assert all(p.rerouted == 0 for p in baseline)
    assert any(p.rerouted > 0 for p in resilient)
    assert all(p.fallbacks > 0 for p in baseline)
    # Goodput curves expose the same data the cliff query scans.
    assert result.goodput_curve(1.0, True) == [
        (p.offered_rps, p.goodput_rps) for p in resilient
    ]


def test_sweep_is_byte_deterministic():
    first = run_chaos_sweep(ChaosSweepConfig(**TINY))
    second = run_chaos_sweep(ChaosSweepConfig(**TINY))
    assert first.to_json() == second.to_json()
    json.loads(first.to_json())  # well-formed


def test_artifacts_written_and_valid(tmp_path):
    config = ChaosSweepConfig(**TINY, artifact_dir=str(tmp_path))
    run_chaos_sweep(config)
    paths = sorted(p.name for p in tmp_path.iterdir())
    assert paths == [
        "baseline-i0-pt0.jsonl", "baseline-i0-pt1.jsonl",
        "resilient-i0-pt0.jsonl", "resilient-i0-pt1.jsonl",
    ]
    for path in tmp_path.iterdir():
        issues = validate_artifact(str(path))
        assert issues == []
        meta = json.loads(path.read_text().splitlines()[0])
        assert meta["meta"]["intensity"] == 1.0


#: SHA-256 of the TINY grid's ``to_json()`` and of each cell artifact.
#: A refactor of the experiment drivers (sweep point, chaos cell,
#: recovery scenario) must keep every byte; a change that moves serving
#: output on purpose recaptures them together.
CHAOS_GOLDEN_SHA256 = {
    "to_json": (
        "79246c980864e3b242dc4d14b559f068f982f2799e0ad248b47d2f628eb79fc9"
    ),
    "baseline-i0-pt0.jsonl": (
        "9fb4acdec3cf82e8b99024c9f9d724f370a4ad0aaa172f6e47475bba9be3f3fe"
    ),
    "baseline-i0-pt1.jsonl": (
        "27b4d008e3a93581643ae658c13263de537fa1514f55352abcedf5bee8832ce7"
    ),
    "resilient-i0-pt0.jsonl": (
        "a867cc973c8b8bb9e7ab71173400fc69f175f596e63dcf9010b9a3fe5e782569"
    ),
    "resilient-i0-pt1.jsonl": (
        "d45b08d960e39e75dfa53969b7180488a5e549538bde054448ec07776a32cedd"
    ),
}


def test_sweep_and_cell_artifacts_match_golden(tmp_path):
    result = run_chaos_sweep(
        ChaosSweepConfig(**TINY, artifact_dir=str(tmp_path))
    )
    digests = {
        "to_json": hashlib.sha256(result.to_json().encode()).hexdigest(),
    }
    for path in tmp_path.iterdir():
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == CHAOS_GOLDEN_SHA256
