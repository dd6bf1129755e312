"""Closed-loop properties of an armed run: every actuator honors its
dwell-time hysteresis, all four actuators actually fire under pressure,
and the whole armed loop is seed-replayable.

One overloaded STANDALONE scenario (4 tenants at a rate well past the
two-card knee, one card parked in the standby pool) drives the
controller through its full repertoire; the properties below are
asserted over the recorded ``(time, kind, detail)`` action log rather
than any particular trajectory, so they hold under retuning.
"""

import json

import pytest

from repro.control import ControllerConfig
from repro.control.controller import (
    PLACEMENT_DWELL_S,
    SCALE_DWELL_S,
    WEIGHT_DWELL_S,
)
from repro.core import DMXSystem, Mode, SystemConfig
from repro.resilience import ResilienceConfig
from repro.resilience.brownout import BrownoutConfig
from repro.serve import (
    Discipline,
    FrontendConfig,
    PoissonArrivals,
    ServingFrontend,
    TenantSpec,
)
from repro.workloads import build_benchmark_chains

BROWNOUT_DWELL_S = 4e-3
CONTROLLER = ControllerConfig(standby_cards=1)
#: Dwell gates are asserted up to float slop on the sim clock.
SLOP = 1e-12


def armed_run(seed=3):
    chains = build_benchmark_chains("sound-detection", 4)
    system = DMXSystem(
        chains,
        SystemConfig(mode=Mode.STANDALONE),
        resilience=ResilienceConfig(seed=7),
    )
    tenants = [
        TenantSpec(
            name=chain.name,
            arrivals=PoissonArrivals(700.0),
            n_requests=40,
            priority=i % 2,
        )
        for i, chain in enumerate(chains)
    ]
    frontend = ServingFrontend(
        system,
        tenants,
        FrontendConfig(
            max_inflight=6,
            discipline=Discipline.WRR,
            slo_s=20e-3,
            brownout=BrownoutConfig(min_dwell_s=BROWNOUT_DWELL_S),
            controller=CONTROLLER,
        ),
        seed=seed,
    )
    result = frontend.run()
    return frontend, result


@pytest.fixture(scope="module")
def armed():
    frontend, result = armed_run()
    return frontend, result, frontend._controller.actions


def _times(actions, *kinds, skip_arm_time=False):
    return [
        t
        for t, kind, _ in actions
        if kind in kinds and not (skip_arm_time and t == 0.0)
    ]


def _assert_spaced(times, dwell):
    for earlier, later in zip(times, times[1:]):
        assert later - earlier >= dwell - SLOP, (
            f"actions {earlier} and {later} violate dwell {dwell}"
        )


def test_the_scenario_exercises_every_actuator(armed):
    _, _, actions = armed
    kinds = {kind for _, kind, _ in actions}
    assert {"weight", "tier", "scale_up", "scale_down", "migration"} <= kinds


def test_weight_changes_honor_the_per_tenant_dwell(armed):
    _, _, actions = armed
    by_tenant = {}
    for t, kind, detail in actions:
        if kind != "weight":
            continue
        by_tenant.setdefault(detail.split(":", 1)[0], []).append(t)
    assert by_tenant, "no weight actions recorded"
    for times in by_tenant.values():
        _assert_spaced(times, WEIGHT_DWELL_S)


def test_tier_changes_never_flap_faster_than_the_ladder_dwell(armed):
    _, _, actions = armed
    times = _times(actions, "tier")
    assert times, "no tier actions recorded"
    _assert_spaced(times, BROWNOUT_DWELL_S)


def test_scaling_honors_its_dwell(armed):
    _, _, actions = armed
    # Parking the standby pool at arm time is configuration, not a
    # scaling decision; the dwell gates in-run decisions.
    times = _times(actions, "scale_up", "scale_down", skip_arm_time=True)
    assert times, "no in-run scaling actions recorded"
    _assert_spaced(times, SCALE_DWELL_S)


def test_placement_updates_honor_their_dwell(armed):
    _, _, actions = armed
    times = _times(actions, "migration", skip_arm_time=True)
    assert times, "no in-run migrations recorded"
    # One update may move several apps at the same instant (urgent
    # evacuations bypass the budget); the dwell gates distinct updates.
    _assert_spaced(sorted(set(times)), PLACEMENT_DWELL_S)


def test_armed_runs_are_seed_replayable():
    frontend_a, result_a = armed_run()
    frontend_b, result_b = armed_run()
    assert frontend_a._controller.actions == frontend_b._controller.actions
    canonical = lambda r: json.dumps(
        r.to_dict(), sort_keys=True, separators=(",", ":")
    )
    assert canonical(result_a) == canonical(result_b)


def test_decisions_land_in_telemetry(armed):
    frontend, _, actions = armed
    by_kind = {}
    for counter in frontend.telemetry.metrics.counters():
        if counter.name == "controller_actions":
            by_kind[dict(counter.labels)["kind"]] = counter.value
    # Every recorded action incremented its per-kind counter, and every
    # kind surfaced at least one instant in the controller category.
    assert sum(by_kind.values()) == len(actions)
    for _, kind, _ in actions:
        assert by_kind[kind] >= 1
    categories = {i.category for i in frontend.telemetry.instants}
    assert "controller" in categories
