"""What one control tick costs: the tier model's cached bids against a
from-scratch oracle, and the work an idle tick skips.

:class:`TierCostModel` keeps each chain's representative leg and its
contention-free DRX/CPU prices per ``(app, home DRX)`` pair and reads
only live queue depths per tick. The oracle below rebuilds the leg and
calls the backends' full ``estimate()`` at every tick of a ramp that
migrates chains and scales the card pool both ways; the two must agree
exactly, and the contention-free pricing must run once per pair seen,
not once per tick.

A profile hook watches each tick run, with no wall clock: a latency
window is sorted at most once per sample count, the tier ladder is
priced only on an overshoot or a tier change, and placement reaches
its by-heat passes only when a move was possible.
"""

import sys
from collections import Counter
from dataclasses import replace

import pytest

from repro.backends.base import CPUBackend, DRXBackend, LegSpec
from repro.control import ControllerConfig, TierBid, TierCostModel
from repro.control.controller import TARGET_FRACTION
from repro.control.cost import (
    COALESCE_COST_S,
    COALESCE_RELIEF_FRACTION,
    SHED_COST_WEIGHT,
)
from repro.control.placement import plan_placement
from repro.core import DMXSystem, Mode, MotionStage, SystemConfig
from repro.core.system import SCRATCHPAD_FUSION
from repro.resilience import ResilienceConfig
from repro.resilience.brownout import BrownoutConfig, BrownoutTier
from repro.serve import (
    Discipline,
    FrontendConfig,
    LatencyTracker,
    RampArrivals,
    ServingFrontend,
    TenantSpec,
)
from repro.workloads import build_benchmark_chains

from .test_placement_exact import BY_HEAT, reference_plan_placement

SLO = 30e-3
TENANTS = 4
#: One square-wave cycle, 30% then 115% of the four-card peak.
SEGMENTS = ((0.25, 250.0 / TENANTS), (0.25, 970.0 / TENANTS))


def _reference_leg(system, app_index):
    """The chain's first motion stage, rebuilt from scratch."""
    mode = system.config.mode
    for stage_index, stage in enumerate(system.chains[app_index].stages):
        if not isinstance(stage, MotionStage):
            continue
        src = system._accel_names[(app_index, stage_index - 1)]
        dst = system._accel_names[(app_index, stage_index + 1)]
        drx, staging = system._drx_placement(mode, src, app_index)
        fused = stage.profile
        if SCRATCHPAD_FUSION:
            fused = replace(
                fused, bytes_in=stage.input_bytes, bytes_out=stage.output_bytes
            )
        return LegSpec(
            mode=mode, src=src, dst=dst, staging=staging, stage=stage,
            fused=fused, threads=stage.cpu_threads, drx=drx,
        )
    raise AssertionError("chain has no motion stage")


def _reference_bids(system, slo_s, shed_fraction):
    """The tier ladder priced on full ``estimate()`` calls."""
    legs = [_reference_leg(system, a) for a in range(len(system.chains))]
    n = len(legs)
    drx_ests = [DRXBackend(system).estimate(leg) for leg in legs]
    cpu_ests = [CPUBackend(system).estimate(leg) for leg in legs]
    queue_s = sum(e.queue_s for e in drx_ests) / n
    drx_service = sum(e.service_s for e in drx_ests) / n
    cpu_total = sum(e.total_s for e in cpu_ests) / n
    return [
        TierBid(
            tier=BrownoutTier.SHED_LOW,
            relief_s=shed_fraction * queue_s,
            paid_s=SHED_COST_WEIGHT * shed_fraction * slo_s,
        ),
        TierBid(
            tier=BrownoutTier.COALESCE,
            relief_s=COALESCE_RELIEF_FRACTION * queue_s,
            paid_s=COALESCE_COST_S,
        ),
        TierBid(
            tier=BrownoutTier.FORCE_CPU,
            relief_s=queue_s + (drx_service - cpu_total),
            paid_s=max(0.0, cpu_total - drx_service),
        ),
    ]


_TAIL = LatencyTracker.tail.__code__
_BIDS = TierCostModel.bids.__code__
_PLAN = plan_placement.__code__


class _TickWork:
    """What one tick ran, seen by a ``sys.setprofile`` hook: its bids
    calls, its window sorts (tallied run-wide per tracker and sample
    count) and, per placement plan, the reference plan for the same
    inputs and whether the by-heat passes were reached."""

    def __init__(self, sorts):
        self.sorts = sorts
        self.bids = 0
        self.plans = []

    def hook(self, frame, event, arg):
        code = frame.f_code
        if event == "call":
            if code is _BIDS:
                self.bids += 1
            elif code is _PLAN:
                inputs = frame.f_locals
                self.plans.append([
                    reference_plan_placement(
                        inputs["system"], dict(inputs["loads"]),
                        list(inputs["alive_cards"]),
                    ),
                    False,
                ])
            elif code is BY_HEAT:
                self.plans[-1][1] = True
        elif event == "c_call" and arg is sorted and code is _TAIL:
            tracker = frame.f_locals["self"]
            self.sorts[tracker, tracker.count] += 1


@pytest.fixture(scope="module")
def ramp():
    """Run one ramp cycle, checking the model against the oracle and
    tallying contention-free pricing calls and each tick's work at
    every controller tick."""
    chains = build_benchmark_chains("sound-detection", TENANTS)
    system = DMXSystem(
        chains, SystemConfig(mode=Mode.STANDALONE),
        resilience=ResilienceConfig(seed=0),
    )
    per_tenant = round(sum(d * r for d, r in SEGMENTS))
    tenants = [
        TenantSpec(
            name=chain.name, arrivals=RampArrivals(segments=SEGMENTS),
            n_requests=per_tenant, priority=i % 2,
        )
        for i, chain in enumerate(chains)
    ]
    frontend = ServingFrontend(
        system, tenants,
        FrontendConfig(
            max_inflight=6, discipline=Discipline.WRR, slo_s=SLO,
            brownout=BrownoutConfig(min_dwell_s=4e-3),
            controller=ControllerConfig(
                standby_cards=1, deescalate_fraction=0.2,
            ),
        ),
        seed=0,
    )
    controller = frontend._controller
    model = controller._tier_model
    calls = {"drx": 0, "cpu": 0}

    def counted(kind, method):
        def wrapper(leg):
            calls[kind] += 1
            return method(leg)
        return wrapper

    model._drx.unloaded = counted("drx", model._drx.unloaded)
    model._cpu.unloaded = counted("cpu", model._cpu.unloaded)

    ticks = []
    pairs = set()
    sorts = Counter()
    work = []
    update = controller.update
    brownout = frontend._brownout

    def checked_update(now):
        shed = controller._shed_fraction()
        pairs.update(
            (a, system.card_of_app(a)) for a in range(len(chains))
        )
        ticks.append((
            now, model.bids(SLO, shed),
            _reference_bids(system, SLO, shed),
        ))
        tier = brownout.tier
        tick = _TickWork(sorts)
        previous = sys.getprofile()
        sys.setprofile(tick.hook)
        try:
            update(now)
        finally:
            sys.setprofile(previous)
        # A tick adds no sample, so this is the tail the tick read.
        work.append((controller.global_tail(), tier, brownout.tier, tick))

    controller.update = checked_update
    frontend.run()
    return {
        "ticks": ticks, "pairs": pairs, "calls": calls,
        "kinds": {kind for _, kind, _ in controller.actions},
        "system": system, "sorts": sorts, "work": work,
    }


def test_ramp_exercises_every_placement_change(ramp):
    assert {"migration", "scale_up", "scale_down"} <= ramp["kinds"]
    # Homes actually moved, so the cache served more than one entry
    # for some chain.
    assert len(ramp["pairs"]) > TENANTS


def test_cached_bids_equal_the_from_scratch_oracle_every_tick(ramp):
    assert len(ramp["ticks"]) > 100
    for now, bids, reference in ramp["ticks"]:
        assert bids == reference, now


def test_contention_free_pricing_runs_once_per_app_home_pair(ramp):
    seen = len(ramp["pairs"])
    assert ramp["calls"]["drx"] <= seen
    assert ramp["calls"]["cpu"] <= seen
    assert len(ramp["ticks"]) > 10 * seen


def test_a_window_is_sorted_at_most_once_per_sample_count(ramp):
    sorts = ramp["sorts"]
    # Every tracker the controller reads: the run-wide one and four
    # tenants'.
    assert len({tracker for tracker, _ in sorts}) == TENANTS + 1
    assert max(sorts.values()) == 1


def test_bids_run_only_on_an_overshoot_or_a_tier_change(ramp):
    priced = 0
    for tail, before, after, tick in ramp["work"]:
        overshoot = tail is not None and tail > TARGET_FRACTION * SLO
        assert tick.bids == int(overshoot or after is not before)
        priced += tick.bids
    # The ramp both overshoots and idles.
    assert 0 < priced < len(ramp["work"]) // 2


def test_placement_passes_run_only_when_a_move_was_possible(ramp):
    system = ramp["system"]
    cards = system.standalone_cards()
    # Every card costs every app the same crossings here, so an app can
    # move only on a balance win, and a move that was possible is made:
    # the passes should run on exactly the plans that migrate.
    assert len({
        system.upstream_crossings(a, c) for a in range(TENANTS) for c in cards
    }) == 1
    plans = [plan for _, _, _, tick in ramp["work"] for plan in tick.plans]
    assert len(plans) > 100
    for reference, reached in plans:
        assert reached == bool(reference.migrations)
    assert any(reached for _, reached in plans)
