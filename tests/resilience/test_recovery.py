"""Permanent-failure domains: crash → detect → decommission → drain →
rescue → revive → re-admit.

The contract of :mod:`repro.resilience.recovery`:

* a scheduled crash is *detected* (consecutive observed failures promote
  the target's breaker to DEAD) and the domain decommissioned within the
  detection budget;
* in-flight legs on the dead domain are *drained* via the engine's
  interrupt machinery and *rescued exactly once* on the surviving CPU
  backend — no request is lost, none is double-counted;
* a request past the plan's rescue deadline fails with the typed
  :class:`~repro.faults.RescueAbandoned` instead of being resubmitted;
* a *revival* re-admits the domain through half-open probing;
* everything is deterministic, and a crash-free plan arms nothing.
"""

import hashlib
import json

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
from repro.faults import CrashPlan, DomainCrash
from repro.profiles import WorkProfile
from repro.resilience import (
    BreakerState,
    RecoveryScenarioConfig,
    ResilienceConfig,
    run_recovery_scenario,
)
from repro.telemetry import load_artifact

KB = 1024
SPEC = AcceleratorSpec(name="accel", domain="d", speedup_vs_cpu=6.0)

#: With 4 STANDALONE tenants (2 apps per card) the kill target serves
#: tenants app0/app1; drx.s1 (app2/app3) survives.
TARGET = "drx.s0"


def make_chain(i=0):
    profile = WorkProfile(
        name="motion", bytes_in=16 * KB, bytes_out=8 * KB,
        elements=16384, ops_per_element=20.0, gather_fraction=0.3,
    )
    return AppChain(
        name=f"app{i}",
        stages=[
            KernelStage("k1", SPEC, cpu_time_s=30e-6, accel_time_s=2e-6,
                        output_bytes=16 * KB),
            MotionStage("m", profile, input_bytes=16 * KB,
                        output_bytes=8 * KB, cpu_threads=3),
            KernelStage("k2", SPEC, cpu_time_s=24e-6, accel_time_s=2e-6,
                        output_bytes=4 * KB),
        ],
    )


def chains():
    return [make_chain(i) for i in range(4)]


def scenario(crashes, tmp_path=None, **overrides):
    kwargs = dict(
        offered_rps=40e3,
        crashes=crashes,
        n_tenants=4,
        requests_per_tenant=12,
        chain_factory=chains,
        slo_s=5e-3,
        seed=0,
    )
    kwargs.update(overrides)
    if tmp_path is not None:
        kwargs.setdefault("artifact_path", str(tmp_path / "run.jsonl"))
    return RecoveryScenarioConfig(**kwargs)


KILL = (DomainCrash(target=TARGET, at_s=300e-6),)
KILL_REVIVE = (DomainCrash(target=TARGET, at_s=300e-6, revive_at_s=2e-3),)


# -- detection & decommission --------------------------------------------------


def test_crash_is_detected_and_decommissioned():
    result = run_recovery_scenario(scenario(KILL))
    assert result.domains["crashed"] == [TARGET]
    assert result.domains["decommissioned"] == [TARGET]
    detect = result.detect_latency_s[TARGET]
    assert detect is not None and detect >= 0
    # detect_after_failures=1 and legs in flight at the kill: the first
    # drained leg detects the corpse at the crash instant itself.
    assert detect == 0.0


def test_detection_escalates_over_consecutive_failures():
    result = run_recovery_scenario(
        scenario(KILL, detect_after_failures=3)
    )
    assert result.domains["decommissioned"] == [TARGET]
    # Three observations were needed before decommission.
    d = result.domains
    assert d["drained"] + d["failed_fast"] >= 3


def test_dead_breaker_blocks_traffic_until_revival(tmp_path):
    result = run_recovery_scenario(scenario(KILL, tmp_path))
    artifact = load_artifact(result.artifact_path)
    assert artifact.counter_value(
        "breaker_transitions", target=TARGET, to="dead"
    ) == 1
    assert artifact.counter_value("domain_decommissions") == 1
    # No span starts on the dead card after decommission (also enforced
    # as invariant C4 on every artifact this suite writes).
    dead_at = next(
        i.time for i in artifact.instants if i.name == "domain_dead"
    )
    late = [
        s for s in artifact.spans
        if s.actor == TARGET and s.start > dead_at + 1e-9
    ]
    assert late == []


# -- drain & rescue ------------------------------------------------------------


def test_inflight_requests_are_rescued_exactly_once():
    result = run_recovery_scenario(scenario(KILL))
    rescued = [r for r in result.records if r.rescued]
    assert rescued, "the kill must catch requests in flight"
    assert len(rescued) == result.domains["rescued"]
    assert result.domains["drained"] == result.domains["rescued"]
    # Rescue means completion: nothing drained may be lost or failed.
    assert all(not r.failed for r in rescued)
    assert all(not r.failed for r in result.records)
    # Every tenant's admitted requests all completed (conservation).
    assert len(result.records) == 4 * 12


def test_rescue_lands_on_surviving_backend_with_burned_latency(tmp_path):
    result = run_recovery_scenario(scenario(KILL, tmp_path))
    artifact = load_artifact(result.artifact_path)
    rescues = [i for i in artifact.instants if i.name == "domain_rescue"]
    assert rescues and all(i.attrs["to"] == "cpu" for i in rescues)
    # The drained attempt's burned time is re-billed to recovery spans,
    # never silently dropped.
    recovery = [
        s for s in artifact.spans
        if s.phase == "recovery" and s.attrs.get("cause") == "DomainCrashed"
    ]
    burned = [i.attrs["burned_s"] for i in rescues if i.attrs["burned_s"]]
    assert len(recovery) == len(burned)


def test_rescue_deadline_fails_requests_with_typed_reason():
    result = run_recovery_scenario(
        scenario(KILL, rescue_deadline_s=0.0, verify=False)
    )
    d = result.domains
    assert d["rescues_abandoned"] > 0
    assert d["rescued"] == 0
    failed = [r for r in result.records if r.failed]
    assert len(failed) == d["rescues_abandoned"]
    assert all(not r.rescued for r in result.records)


def test_rescue_past_deadline_still_counts_when_budget_allows():
    generous = run_recovery_scenario(
        scenario(KILL, rescue_deadline_s=1.0)
    )
    assert generous.domains["rescues_abandoned"] == 0
    assert generous.domains["rescued"] > 0


# -- revival -------------------------------------------------------------------


def test_revival_readmits_through_half_open_probing(tmp_path):
    result = run_recovery_scenario(
        scenario(KILL_REVIVE, tmp_path, requests_per_tenant=40)
    )
    assert result.domains["revived"] == [TARGET]
    artifact = load_artifact(result.artifact_path)
    assert artifact.counter_value(
        "breaker_transitions", target=TARGET, to="dead"
    ) == 1
    # DEAD -> OPEN at revival, then the normal half-open probe path.
    assert artifact.counter_value(
        "breaker_transitions", target=TARGET, to="half_open"
    ) >= 1
    revived_at = next(
        i.time for i in artifact.instants if i.name == "domain_revived"
    )
    back = [
        s for s in artifact.spans
        if s.actor == TARGET and s.start > revived_at
    ]
    assert back, "revived card must serve traffic again"


def test_unrevived_domain_stays_out():
    result = run_recovery_scenario(scenario(KILL, requests_per_tenant=30))
    assert result.domains["revived"] == []
    assert all(not r.failed for r in result.records)


# -- determinism & the unarmed identity ---------------------------------------


def _digest(result):
    return [
        (r.request_id, r.app, r.start, r.end, r.failed, r.rescued,
         tuple(r.backend or ()))
        for r in result.records
    ]


def test_recovery_runs_are_deterministic():
    a = run_recovery_scenario(scenario(KILL_REVIVE))
    b = run_recovery_scenario(scenario(KILL_REVIVE))
    assert _digest(a) == _digest(b)
    assert a.domains == b.domains


#: SHA-256 of a kill-and-revive run's artifact, its ``serve.to_dict()``
#: and its domain summary (canonical JSON). A refactor of the experiment
#: drivers must keep every byte; a change that moves serving output on
#: purpose recaptures them together.
RECOVERY_GOLDEN_SHA256 = {
    "artifact": (
        "b6fca5de6d14e6fc01ad14bbbf86eb97a7383c74c19b5fd58765c59ec34d81fb"
    ),
    "serve": (
        "040d2ee9ba91b6699e3f4b51838dbcd0f8f53db17aa45499c16f156e340ad3b5"
    ),
    "domains": (
        "c70fa2926f7ad9f07e4fa5e7181dacd1196cae47152f673de758c97f17ab5c10"
    ),
}


def test_kill_revive_run_matches_golden(tmp_path):
    result = run_recovery_scenario(scenario(KILL_REVIVE, tmp_path))

    def canonical(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    with open(result.artifact_path, "rb") as handle:
        artifact = handle.read()
    digests = {
        "artifact": artifact,
        "serve": canonical(result.serve.to_dict()).encode(),
        "domains": canonical(result.domains).encode(),
    }
    assert {
        name: hashlib.sha256(data).hexdigest()
        for name, data in digests.items()
    } == RECOVERY_GOLDEN_SHA256


def test_golden_artifact_loads_each_repeated_value_once(tmp_path):
    result = run_recovery_scenario(scenario(KILL_REVIVE, tmp_path))
    with open(result.artifact_path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    assert digest == RECOVERY_GOLDEN_SHA256["artifact"]
    spans = load_artifact(result.artifact_path).spans

    def one_object_per_value(values):
        values = list(values)
        first = {}
        assert len(set(values)) < len(values)  # the values do repeat
        return all(first.setdefault(value, value) is value for value in values)

    assert one_object_per_value(s.name for s in spans)
    assert one_object_per_value(s.actor for s in spans)
    assert one_object_per_value(s.phase for s in spans)
    assert one_object_per_value(key for s in spans for key in s.attrs)
    assert one_object_per_value(s.request_id for s in spans)
    assert one_object_per_value(
        t for s in spans for t in (s.start, s.end) if t > 0.0
    )


def test_empty_crash_plan_arms_nothing():
    system = DMXSystem(
        chains(), SystemConfig(mode=Mode.STANDALONE),
        domains=CrashPlan(),
    )
    assert system.domains is None


def test_goodput_window_queries():
    result = run_recovery_scenario(scenario(KILL))
    with pytest.raises(ValueError):
        result.goodput_between(1.0, 1.0)
    total = result.goodput_between(0.0, 10.0) * 10.0
    assert total == len([r for r in result.records if not r.failed])


# -- scenario config validation ------------------------------------------------


def test_scenario_config_validates():
    with pytest.raises(ValueError):
        RecoveryScenarioConfig(offered_rps=0.0, crashes=KILL)
    with pytest.raises(ValueError):
        RecoveryScenarioConfig(offered_rps=1.0, crashes=KILL, n_tenants=0)
    with pytest.raises(ValueError, match="slo_s must be positive"):
        RecoveryScenarioConfig(offered_rps=1.0, crashes=KILL, slo_s=0.0)
    with pytest.raises(ValueError):
        DomainCrash(target=TARGET, at_s=1.0, revive_at_s=0.5)
    with pytest.raises(ValueError):
        CrashPlan(crashes=(
            DomainCrash(target=TARGET, at_s=1.0),
            DomainCrash(target=TARGET, at_s=2.0),
        ))


def test_domain_manager_summary_shape():
    result = run_recovery_scenario(scenario(KILL))
    assert set(result.domains) == {
        "crashed", "decommissioned", "revived", "detect_latency_s",
        "drained", "failed_fast", "rescued", "rescues_abandoned",
    }


def test_breaker_dead_state_is_terminal_until_revive():
    """Unit-level DEAD semantics: no cooldown half-opens a dead breaker."""
    system = DMXSystem(
        chains(), SystemConfig(mode=Mode.STANDALONE),
        resilience=ResilienceConfig(),
    )
    control = system.control
    control.mark_dead(TARGET)
    breaker = control.breaker(TARGET)
    assert breaker.state is BreakerState.DEAD
    assert not control.admit(TARGET).allow
    assert control.dead_targets() == [TARGET]
    system.sim.schedule(10.0, lambda: None)
    system.sim.run()
    assert not control.admit(TARGET).allow  # time alone never revives
    control.revive(TARGET, cooldown_s=0.0)
    assert breaker.state is not BreakerState.DEAD
