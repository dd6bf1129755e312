"""Breakers wired into DMXSystem dispatch: reroute-before-deadline.

The contract under test: with the control plane armed, a sick DRX costs
the system a handful of deadline-burning failures (enough to trip its
breaker) and everything after is steered around it *without* waiting
out a timeout — to a sibling unit when the placement has one, else to
CPU restructuring. Unarmed, every single request pays the deadline.
"""

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
from repro.faults import FaultPlan, FaultPolicy
from repro.profiles import WorkProfile
from repro.resilience import BreakerConfig, BreakerState, ResilienceConfig

MB = 1024 * 1024
SPEC = AcceleratorSpec(name="accel", domain="d", speedup_vs_cpu=6.0)

#: Every DRX leg hangs; the watchdog fires after 20 ms.
ALL_HANG = FaultPlan(
    seed=42, drx=FaultPolicy(hang_p=1.0), drx_deadline_s=20e-3
)

#: Long cooldown so a tripped breaker stays open for the whole run
#: (probe behavior gets its own test with the default schedule).
HOLD_OPEN = ResilienceConfig(
    seed=1,
    breaker=BreakerConfig(cooldown_s=100.0, cooldown_cap_s=100.0),
)


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


def build(mode=Mode.STANDALONE, n_apps=2, faults=None, resilience=None):
    return DMXSystem(
        [make_chain(i) for i in range(n_apps)],
        SystemConfig(mode=mode),
        faults=faults,
        resilience=resilience,
    )


def test_breaker_converts_fallbacks_into_reroutes():
    baseline = build(faults=ALL_HANG).run_latency(requests_per_app=8)
    system = build(faults=ALL_HANG, resilience=HOLD_OPEN)
    resilient = system.run_latency(requests_per_app=8)

    base = baseline.recovery_summary()
    res = resilient.recovery_summary()
    assert base["fallbacks"] == 16 and base["rerouted"] == 0
    # The breaker needs min_observations failures to trip; everything
    # after routes around the sick unit without burning the deadline.
    assert 0 < res["fallbacks"] <= HOLD_OPEN.breaker.min_observations
    assert res["rerouted"] == 16 - res["fallbacks"]
    assert res["failures"] == 0  # reroute is recovery, not loss
    assert resilient.rerouted_count() == res["rerouted"]
    # Skipping the 20 ms deadline burn shows up directly in latency.
    assert resilient.mean_latency() < baseline.mean_latency()
    assert system.control.summary()["open"] == ["drx.s0"]


def test_rerouted_requests_skip_the_recovery_phase():
    system = build(faults=ALL_HANG, resilience=HOLD_OPEN)
    result = system.run_latency(requests_per_app=8)
    rerouted = [r for r in result.records if r.rerouted and not r.fell_back]
    assert rerouted
    # A proactive reroute never armed the watchdog: no deadline elapsed,
    # so no time is billed to the recovery phase.
    assert all("recovery" not in r.phases for r in rerouted)


def test_armed_control_plane_is_deterministic():
    def run():
        system = build(faults=ALL_HANG, resilience=HOLD_OPEN)
        result = system.run_latency(requests_per_app=6)
        records = [
            (r.app, r.request_id, r.latency, r.retries, r.fell_back,
             r.rerouted, r.failed)
            for r in result.records
        ]
        return records, system.control.summary()

    assert run() == run()


def test_fault_free_run_is_bit_identical_with_plane_armed():
    def latencies(resilience):
        system = build(resilience=resilience)
        result = system.run_latency(requests_per_app=4)
        return [(r.app, r.latency, r.phases) for r in result.records]

    # Sensing is passive: arming the control plane on a healthy system
    # must not perturb a single event.
    assert latencies(None) == latencies(HOLD_OPEN)


def test_force_open_drains_to_sibling_card():
    # 4 standalone apps → 2 cards (drx.s0, drx.s1). Draining s0 shifts
    # its apps onto s1 rather than degrading them to CPU.
    system = build(n_apps=4, resilience=HOLD_OPEN)
    system.control.breaker("drx.s0").force_open(cooldown_s=1e9)
    result = system.run_latency(requests_per_app=4)
    assert system.drx_devices["drx.s0"].busy_seconds == 0.0
    assert system.drx_devices["drx.s1"].busy_seconds > 0.0
    summary = result.recovery_summary()
    assert summary["rerouted"] == 8  # apps 0 and 1, 4 requests each
    assert summary["fallbacks"] == 0 and summary["failures"] == 0
    reroutes = [
        i for i in system.telemetry.instants if i.name == "breaker_reroute"
    ]
    assert len(reroutes) == 8
    assert all(i.attrs["to"] == "drx.s1" for i in reroutes)


def test_breaker_telemetry_spans_and_instants():
    system = build(faults=ALL_HANG, resilience=HOLD_OPEN)
    system.run_latency(requests_per_app=8)
    telemetry = system.telemetry

    opens = [i for i in telemetry.instants if i.name == "breaker_open"]
    assert len(opens) == 1
    assert opens[0].actor == "drx.s0"
    assert opens[0].attrs["from"] == "closed"

    flagged = [s for s in telemetry.spans if s.attrs.get("breaker_open")]
    assert len(flagged) == system.control.reroutes
    assert all(s.attrs["rerouted_to"] == "cpu" for s in flagged)

    transitions = telemetry.metrics.counter(
        "breaker_transitions", target="drx.s0", to="open"
    )
    reroutes = telemetry.metrics.counter(
        "breaker_reroutes", target="drx.s0"
    )
    assert transitions.value == 1
    assert reroutes.value == system.control.reroutes
    # The health gauge the breaker acted on is in the registry too.
    health = telemetry.metrics.gauge("health_score", target="drx.s0")
    assert health.last() == 0.0


def test_half_open_probe_under_default_schedule():
    # Default cooldown (25 ms) is shorter than the run: the breaker
    # half-opens mid-run and sends exactly one probe at a time; with the
    # unit still sick, each probe fails and re-trips with backoff.
    config = ResilienceConfig(seed=1)
    system = build(faults=ALL_HANG, resilience=config)
    system.run_latency(requests_per_app=12)
    breaker = system.control.breaker("drx.s0")
    assert breaker.trips >= 2  # tripped, probed, re-tripped
    probes = [
        s for s in system.telemetry.spans if s.attrs.get("breaker_probe")
    ]
    assert probes  # probe attempts are attributed in the span tree
    states = [state for _, state in breaker.transitions]
    assert BreakerState.HALF_OPEN in states
    # Each re-trip came from a failed probe, never from a closed window.
    assert breaker.state in (BreakerState.OPEN, BreakerState.HALF_OPEN)


def test_breaker_events_survive_artifact_round_trip(tmp_path):
    from repro.telemetry import load_artifact, render_report, write_artifact

    system = build(faults=ALL_HANG, resilience=HOLD_OPEN)
    system.run_latency(requests_per_app=8)
    path = tmp_path / "run.jsonl"
    write_artifact(str(path), system.telemetry, meta={"seed": 42})
    artifact = load_artifact(str(path))

    # Span attributes thread through: rerouted motion attempts and the
    # open flag are visible to any artifact consumer.
    flagged = [s for s in artifact.spans if s.attrs.get("breaker_open")]
    assert len(flagged) == system.control.reroutes
    report = render_report(artifact, max_waterfalls=0)
    assert "control-plane events" in report
    assert "breaker_open" in report
    assert "breaker_reroute" in report


def test_quiet_run_report_has_no_control_plane_section(tmp_path):
    from repro.telemetry import load_artifact, render_report, write_artifact

    system = build(resilience=HOLD_OPEN)
    system.run_latency(requests_per_app=2)
    path = tmp_path / "quiet.jsonl"
    write_artifact(str(path), system.telemetry, meta={})
    report = render_report(load_artifact(str(path)), max_waterfalls=0)
    assert "control-plane events" not in report


@pytest.mark.parametrize("mode", [Mode.INTEGRATED, Mode.BUMP_IN_WIRE])
def test_modes_without_siblings_reroute_to_cpu(mode):
    system = build(mode=mode, faults=ALL_HANG, resilience=HOLD_OPEN)
    result = system.run_latency(requests_per_app=6)
    summary = result.recovery_summary()
    assert summary["rerouted"] > 0
    assert summary["failures"] == 0
    reroutes = [
        i for i in system.telemetry.instants if i.name == "breaker_reroute"
    ]
    assert all(i.attrs["to"] == "cpu" for i in reroutes)


def test_dead_breakers_are_reported_separately_from_open():
    """Failing-first for the open/dead conflation: a decommissioned
    (DEAD) target must not appear in ``open_targets()`` — open means
    recoverable (OPEN/HALF_OPEN), dead means gone until revived."""
    from repro.resilience.control import ControlPlane
    from repro.sim import Simulator

    plane = ControlPlane(Simulator(), None, ResilienceConfig(seed=1))
    plane.mark_dead("drx.s0")
    for _ in range(4):  # trip drx.s1 OPEN the honest way
        plane.record("drx.s1", ok=False)
    assert plane.breaker("drx.s0").state is BreakerState.DEAD
    assert plane.breaker("drx.s1").state is BreakerState.OPEN
    assert plane.open_targets() == ["drx.s1"]
    assert plane.dead_targets() == ["drx.s0"]
    summary = plane.summary()
    assert summary["open"] == ["drx.s1"]
    assert summary["dead"] == ["drx.s0"]
    # Revival moves the card back into the recoverable population.
    plane.revive("drx.s0", cooldown_s=0.0)
    assert plane.dead_targets() == []
    assert "drx.s0" in plane.open_targets()
