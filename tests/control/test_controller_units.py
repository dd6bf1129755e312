"""Unit tests for the controller's parts: tier pricing, placement
packing, the live-migration surface, config validation, and the ramp
arrival process the SLO benchmarks drive load with."""

import random

import pytest

from repro.control import ControllerConfig, TierBid, TierCostModel, plan_placement
from repro.control import controller, cost
from repro.core import DMXSystem, Mode, SystemConfig
from repro.resilience import ResilienceConfig, brownout
from repro.resilience.brownout import BrownoutConfig, BrownoutController, \
    BrownoutTier
from repro.serve import (
    Discipline,
    FrontendConfig,
    PoissonArrivals,
    RampArrivals,
    ServingFrontend,
    TenantSpec,
)
from repro.serve.arrivals import arrival_times
from repro.workloads import build_benchmark_chains

SLO = 20e-3
TARGET = 0.85  # headroom target: needed = tail - 17ms


def standalone_system(resilience=None):
    return DMXSystem(
        build_benchmark_chains("sound-detection", 4),
        SystemConfig(mode=Mode.STANDALONE),
        resilience=resilience,
    )


def spread_system():
    """A topology where crossings are real: two accelerators per switch
    puts each app on its own switch, so a card (homed on its group's
    first switch) is remote to the odd apps' accelerators."""
    return DMXSystem(
        build_benchmark_chains("sound-detection", 4),
        SystemConfig(mode=Mode.STANDALONE, accelerators_per_switch=2),
    )


# -- tier cost model ----------------------------------------------------------


class _FixedBidModel(TierCostModel):
    """A model with hand-authored bids, for exercising choose() alone."""

    def __init__(self, fixed):
        self._fixed = list(fixed)

    def bids(self, slo_s, shed_fraction):
        return list(self._fixed)


def _bid(tier, relief_ms, paid_ms):
    return TierBid(tier=tier, relief_s=relief_ms * 1e-3, paid_s=paid_ms * 1e-3)


LADDER = [
    _bid(BrownoutTier.SHED_LOW, relief_ms=5.0, paid_ms=10.0),
    _bid(BrownoutTier.COALESCE, relief_ms=3.0, paid_ms=1.0),
    _bid(BrownoutTier.FORCE_CPU, relief_ms=8.0, paid_ms=4.0),
]


def test_inside_headroom_target_picks_normal():
    model = _FixedBidModel(LADDER)
    tier, _ = model.choose(16e-3, SLO, TARGET, shed_fraction=0.5)
    assert tier is BrownoutTier.NORMAL


def test_cheapest_sufficient_tier_wins_not_the_lowest_rung():
    # needed = 2.5ms: every tier's relief suffices; COALESCE is cheapest.
    model = _FixedBidModel(LADDER)
    tier, _ = model.choose(19.5e-3, SLO, TARGET, shed_fraction=0.5)
    assert tier is BrownoutTier.COALESCE


def test_insufficient_cheap_tiers_are_skipped():
    # needed = 6ms: only FORCE_CPU's 8ms relief covers it, despite
    # COALESCE being 4x cheaper.
    model = _FixedBidModel(LADDER)
    tier, _ = model.choose(23e-3, SLO, TARGET, shed_fraction=0.5)
    assert tier is BrownoutTier.FORCE_CPU


def test_nothing_sufficient_degrades_to_biggest_relief():
    model = _FixedBidModel(LADDER)
    tier, _ = model.choose(60e-3, SLO, TARGET, shed_fraction=0.5)
    assert tier is BrownoutTier.FORCE_CPU


def test_equal_price_tie_breaks_to_the_lower_tier():
    model = _FixedBidModel(
        [
            _bid(BrownoutTier.SHED_LOW, relief_ms=5.0, paid_ms=4.0),
            _bid(BrownoutTier.FORCE_CPU, relief_ms=8.0, paid_ms=4.0),
        ]
    )
    tier, _ = model.choose(19e-3, SLO, TARGET, shed_fraction=0.5)
    assert tier is BrownoutTier.SHED_LOW


def test_overshoot_with_no_actionable_tier_picks_normal():
    # max_tier NORMAL leaves no tier to bid: nothing to degrade to.
    model = _FixedBidModel([])
    tier, bids = model.choose(60e-3, SLO, TARGET, shed_fraction=0.5)
    assert tier is BrownoutTier.NORMAL
    assert bids == []


def test_inside_headroom_target_prices_nothing():
    class _Unpriced(TierCostModel):
        def __init__(self):
            pass

        def bids(self, slo_s, shed_fraction):
            raise AssertionError("priced inside the headroom target")

    tier, bids = _Unpriced().choose(16e-3, SLO, TARGET, shed_fraction=0.5)
    assert tier is BrownoutTier.NORMAL
    assert bids is None


def test_controller_over_a_normal_capped_ladder_survives_overshoot():
    """A ladder capped at NORMAL leaves the controller no tier to bid.
    The first overshoot once crashed the run in ``choose`` (``max()``
    of an empty bid list); the tier must simply stay NORMAL."""
    chains = build_benchmark_chains("sound-detection", 4)
    system = DMXSystem(
        chains, SystemConfig(mode=Mode.STANDALONE),
        resilience=ResilienceConfig(seed=0),
    )
    tenants = [
        TenantSpec(
            name=c.name, arrivals=RampArrivals(((0.05, 242.5),)),
            n_requests=12,
        )
        for c in chains
    ]
    frontend = ServingFrontend(
        system, tenants,
        FrontendConfig(
            max_inflight=6, discipline=Discipline.WRR, slo_s=5e-3,
            brownout=BrownoutConfig(max_tier=BrownoutTier.NORMAL),
            controller=ControllerConfig(),
        ),
        seed=0,
    )
    result = frontend.run()
    assert result.completed == 48
    # The SLO was overshot, so the tier model was consulted.
    assert frontend._latency.max > controller.TARGET_FRACTION * 5e-3
    assert frontend._brownout.tier is BrownoutTier.NORMAL
    assert frontend._brownout.history == []
    assert "tier" not in {kind for _, kind, _ in frontend.controller_actions}


def real_model(system, max_tier=BrownoutTier.FORCE_CPU):
    return TierCostModel(system, max_tier)


def test_live_bids_are_pure_and_in_tier_order():
    system = standalone_system()
    model = real_model(system)
    before = system.sim.now
    first = model.bids(SLO, shed_fraction=0.5)
    second = model.bids(SLO, shed_fraction=0.5)
    # Pricing advances no clock and is replayable.
    assert system.sim.now == before
    assert first == second
    assert [b.tier for b in first] == [
        BrownoutTier.SHED_LOW,
        BrownoutTier.COALESCE,
        BrownoutTier.FORCE_CPU,
    ]
    for bid in first:
        assert bid.paid_s >= 0.0
    # Shedding and coalescing shave queueing, never add it.
    assert first[0].relief_s >= 0.0
    assert first[1].relief_s >= 0.0
    # FORCE_CPU's relief is *signed*: on an unloaded system there is no
    # queue to dodge and the host path is slower than DRX service, so
    # forcing it must price as net harm — an unsigned gap here once
    # pinned the controller onto the slow host path.
    assert first[2].relief_s < 0.0


def test_max_tier_caps_the_bid_ladder():
    model = real_model(standalone_system(), max_tier=BrownoutTier.COALESCE)
    tiers = [b.tier for b in model.bids(SLO, shed_fraction=0.5)]
    assert BrownoutTier.FORCE_CPU not in tiers
    assert tiers == [BrownoutTier.SHED_LOW, BrownoutTier.COALESCE]


def test_zero_shed_fraction_prices_shedding_as_free_and_useless():
    model = real_model(standalone_system())
    shed = model.bids(SLO, shed_fraction=0.0)[0]
    assert shed.relief_s == 0.0
    assert shed.paid_s == 0.0


# -- placement packing and live migration -------------------------------------


def test_home_placement_is_a_fixed_point():
    system = spread_system()
    cards = system.standalone_cards()
    assert cards == ["drx.s0", "drx.s1"]
    # Even apps sit on their card's switch; their group-mates pay the
    # root-complex crossing either way.
    assert system.upstream_crossings(0, "drx.s0") == 0
    assert system.upstream_crossings(0, "drx.s1") > 0
    assert system.upstream_crossings(2, "drx.s1") == 0
    assert system.upstream_crossings(2, "drx.s0") > 0
    # A healthy placement re-plans to itself: zero churn migrations.
    plan = plan_placement(system, {}, cards)
    assert plan.migrations == []
    assert plan.assignment == {a: cards[a // 2] for a in range(4)}


def test_flat_topology_home_placement_is_also_stable():
    # The default one-switch topology prices every card equally; the
    # stay-home tie-break must still yield zero migrations.
    system = standalone_system()
    cards = system.standalone_cards()
    assert all(
        system.upstream_crossings(a, c) == 0 for a in range(4) for c in cards
    )
    assert plan_placement(system, {}, cards).migrations == []


def test_dead_card_repack_stretches_capacity():
    system = spread_system()
    plan = plan_placement(system, {}, ["drx.s0"])
    # ceil(4 apps / 1 card): nobody strands.
    assert plan.assignment == {a: "drx.s0" for a in range(4)}
    assert sorted(m[0] for m in plan.migrations) == [2, 3]
    assert all(m[1] == "drx.s1" and m[2] == "drx.s0" for m in plan.migrations)


def test_hot_apps_pack_first():
    system = spread_system()
    plan = plan_placement(system, {3: 9.0}, ["drx.s0"])
    assert plan.migrations[0][0] == 3


def test_migrate_app_swaps_the_live_home_card():
    system = spread_system()
    assert system.migrate_app(2, "drx.s0") == "drx.s1"
    assert system.card_of_app(2) == "drx.s0"
    assert system.upstream_crossings(2, system.card_of_app(2)) > 0
    # And back.
    assert system.migrate_app(2, "drx.s1") == "drx.s0"
    assert system.card_of_app(2) == "drx.s1"


def test_migrate_app_rejects_bad_inputs():
    system = standalone_system()
    with pytest.raises(KeyError):
        system.migrate_app(0, "drx.s9")
    with pytest.raises(IndexError):
        system.migrate_app(99, "drx.s0")
    integrated = DMXSystem(
        build_benchmark_chains("sound-detection", 2),
        SystemConfig(mode=Mode.INTEGRATED),
    )
    assert integrated.standalone_cards() == []
    with pytest.raises(ValueError):
        integrated.migrate_app(0, "drx.s0")


def test_plan_placement_needs_a_live_card():
    with pytest.raises(ValueError):
        plan_placement(standalone_system(), {}, [])


# -- configuration validation --------------------------------------------------


#: The controller's sensing, actuator and pricing constants, and the
#: ladder's shed ceiling: ``(module, name, value)``. The goldens reach
#: only the values a run happens to hit (a weight clamp may never
#: bind), so each value is pinned here on its own.
CONSTANTS = [
    ("controller", "UPDATE_PERIOD_S", 2e-3),
    ("controller", "WINDOW", 32),
    ("controller", "MIN_SAMPLES", 4),
    ("controller", "QUANTILE", 0.99),
    ("controller", "TARGET_FRACTION", 0.85),
    ("controller", "MIN_WEIGHT", 1),
    ("controller", "MAX_WEIGHT", 8),
    ("controller", "WEIGHT_DWELL_S", 4e-3),
    ("controller", "SCALE_UP_AT", 0.85),
    ("controller", "SCALE_DOWN_AT", 0.35),
    ("controller", "SCALE_DWELL_S", 8e-3),
    ("controller", "PLACEMENT_DWELL_S", 6e-3),
    ("controller", "MAX_MIGRATIONS_PER_UPDATE", 1),
    ("cost", "SHED_COST_WEIGHT", 2.0),
    ("cost", "COALESCE_RELIEF_FRACTION", 0.35),
    ("cost", "COALESCE_COST_S", 1e-3),
    ("brownout", "SHED_MAX_PRIORITY", 0),
]


MODULES = {"controller": controller, "cost": cost, "brownout": brownout}


@pytest.mark.parametrize(
    "module,name,value", CONSTANTS, ids=[c[1] for c in CONSTANTS]
)
def test_control_values_keep_their_defaults(module, name, value):
    current = getattr(MODULES[module], name)
    assert type(current) is type(value)
    assert current == value


@pytest.mark.parametrize(
    "kwargs",
    [
        {"standby_cards": -1},
        {"deescalate_fraction": 0.0},
        {"deescalate_fraction": controller.TARGET_FRACTION + 0.01},
    ],
)
def test_controller_config_rejects(kwargs):
    with pytest.raises(ValueError):
        ControllerConfig(**kwargs)


def _tenants(chains):
    return [
        TenantSpec(name=c.name, arrivals=PoissonArrivals(100.0), n_requests=2)
        for c in chains
    ]


def test_arming_requires_an_slo():
    with pytest.raises(ValueError, match="slo_s"):
        FrontendConfig(controller=ControllerConfig())


def test_controller_without_a_ladder_arms_and_builds_no_tier_model():
    chains = build_benchmark_chains("sound-detection", 2)
    system = DMXSystem(chains, SystemConfig(mode=Mode.STANDALONE))
    frontend = ServingFrontend(
        system, _tenants(chains),
        FrontendConfig(slo_s=SLO, controller=ControllerConfig()), seed=1,
    )
    assert frontend._controller is not None
    assert frontend._controller._tier_model is None


@pytest.mark.parametrize("armed", [False, True],
                         ids=["no-controller", "controller"])
@pytest.mark.parametrize("ladder", [False, True], ids=["no-ladder", "ladder"])
def test_one_periodic_loop_writes_the_tier(ladder, armed, monkeypatch):
    """Two tenants overloaded past a 10 ms SLO: any tier writer leaves
    NORMAL. The ladder's loop writes the tier only without a
    controller; an armed controller owns it and never steps the
    ladder."""
    updates = []
    update = BrownoutController.update

    def counted_update(ladder_, now):
        updates.append(now)
        return update(ladder_, now)

    monkeypatch.setattr(BrownoutController, "update", counted_update)
    chains = build_benchmark_chains("sound-detection", 2)
    system = DMXSystem(chains, SystemConfig(mode=Mode.STANDALONE))
    tenants = [
        TenantSpec(
            name=c.name, arrivals=PoissonArrivals(400.0), n_requests=16,
            priority=i,
        )
        for i, c in enumerate(chains)
    ]
    frontend = ServingFrontend(
        system, tenants,
        FrontendConfig(
            slo_s=10e-3,
            brownout=BrownoutConfig() if ladder else None,
            controller=ControllerConfig() if armed else None,
        ),
        seed=1,
    )
    result = frontend.run()
    assert result.completed + result.shed == 32
    telemetry = system.telemetry
    writers = {
        i.category for i in telemetry.instants
        if i.name in ("brownout_tier", "controller_tier")
    }
    samples = [
        s for g in telemetry.metrics.gauges() if g.name == "brownout_tier"
        for s in g.samples
    ]
    if not ladder:
        assert writers == set()
        assert samples == []
    elif armed:
        assert writers == {"controller"}
        assert updates == []
    else:
        assert writers == {"brownout"}
        assert updates
    if armed:
        kinds = {kind for _, kind, _ in frontend.controller_actions}
        assert "weight" in kinds


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_tier_model_prices_every_drx_mode_and_rejects_the_rest(mode):
    # The tier model stages its representative leg where the mode's own
    # placement puts it; modes with no DRX have no tier to price.
    chains = build_benchmark_chains("sound-detection", 2)
    system = DMXSystem(chains, SystemConfig(mode=mode))
    tenants = [
        TenantSpec(name=c.name, arrivals=PoissonArrivals(400.0), n_requests=12)
        for c in chains
    ]
    config = FrontendConfig(
        slo_s=SLO, brownout=BrownoutConfig(), controller=ControllerConfig()
    )
    if not mode.uses_drx:
        with pytest.raises(ValueError, match=mode.value):
            ServingFrontend(system, tenants, config, seed=1)
        return
    frontend = ServingFrontend(system, tenants, config, seed=1)
    model = frontend._controller._tier_model
    priced = model.bids(SLO, shed_fraction=0.5)
    assert [b.tier for b in priced] == [
        BrownoutTier.SHED_LOW, BrownoutTier.COALESCE, BrownoutTier.FORCE_CPU,
    ]
    result = frontend.run()
    assert result.arrived == 24
    assert result.completed + result.shed == 24


def test_standby_pool_requires_the_control_plane_and_spare_cards():
    chains = build_benchmark_chains("sound-detection", 4)
    config = FrontendConfig(
        slo_s=SLO,
        brownout=BrownoutConfig(),
        controller=ControllerConfig(standby_cards=1),
    )
    no_resilience = DMXSystem(chains, SystemConfig(mode=Mode.STANDALONE))
    with pytest.raises(ValueError, match="control plane"):
        ServingFrontend(no_resilience, _tenants(chains), config, seed=1)
    armed = standalone_system(resilience=ResilienceConfig(seed=7))
    too_many = FrontendConfig(
        slo_s=SLO,
        brownout=BrownoutConfig(),
        controller=ControllerConfig(standby_cards=2),
    )
    with pytest.raises(ValueError, match="no card in service"):
        ServingFrontend(armed, _tenants(chains), too_many, seed=1)


# -- ramp arrivals -------------------------------------------------------------


def test_ramp_validates_segments():
    with pytest.raises(ValueError):
        RampArrivals(segments=())
    with pytest.raises(ValueError):
        RampArrivals(segments=((0.0, 100.0),))
    with pytest.raises(ValueError):
        RampArrivals(segments=((1.0, -5.0),))


def test_ramp_mean_rate_is_time_weighted():
    ramp = RampArrivals(segments=((1.0, 100.0), (3.0, 300.0)))
    assert ramp.mean_rate_rps == pytest.approx(250.0)
    assert ramp.scaled(500.0).mean_rate_rps == pytest.approx(500.0)


def test_ramp_is_replayable():
    ramp = RampArrivals(segments=((0.5, 50.0), (0.5, 800.0)))
    assert arrival_times(ramp, 5, 100) == arrival_times(ramp, 5, 100)
    assert arrival_times(ramp, 5, 100) != arrival_times(ramp, 6, 100)


def test_ramp_realizes_the_rate_change():
    ramp = RampArrivals(segments=((0.5, 20.0), (0.5, 2000.0)))
    times = arrival_times(ramp, random.Random(11), 600)
    early = sum(1 for t in times if t < 0.5)
    late = sum(1 for t in times if 0.5 <= t < 1.0)
    # ~10 expected in the quiet leg, ~1000/s afterwards.
    assert early < 40
    assert late > 200


def test_ramp_final_rate_holds_forever():
    ramp = RampArrivals(segments=((0.01, 100.0),))
    times = arrival_times(ramp, random.Random(3), 50)
    assert times[-1] > 0.01  # well past the declared ramp span
    assert len(times) == 50
