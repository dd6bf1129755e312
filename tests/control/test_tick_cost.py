"""What one control tick costs: the tier model's cached bids against a
from-scratch oracle.

:class:`TierCostModel` keeps each chain's representative leg and its
contention-free DRX/CPU prices per ``(app, home DRX)`` pair and reads
only live queue depths per tick. The oracle below rebuilds the leg and
calls the backends' full ``estimate()`` at every tick of a ramp that
migrates chains and scales the card pool both ways; the two must agree
exactly, and the contention-free pricing must run once per pair seen,
not once per tick.
"""

from dataclasses import replace

import pytest

from repro.backends.base import CPUBackend, DRXBackend, LegSpec
from repro.control import ControllerConfig, TierBid
from repro.control.cost import (
    COALESCE_COST_S,
    COALESCE_RELIEF_FRACTION,
    SHED_COST_WEIGHT,
)
from repro.core import DMXSystem, Mode, MotionStage, SystemConfig
from repro.core.system import SCRATCHPAD_FUSION
from repro.resilience import ResilienceConfig
from repro.resilience.brownout import BrownoutConfig, BrownoutTier
from repro.serve import (
    Discipline,
    FrontendConfig,
    RampArrivals,
    ServingFrontend,
    TenantSpec,
)
from repro.workloads import build_benchmark_chains

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


@pytest.fixture(scope="module")
def ramp():
    """Run one ramp cycle, checking the model against the oracle and
    tallying contention-free pricing calls at every controller tick."""
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
    update = controller.update

    def checked_update(now):
        shed = controller._shed_fraction()
        pairs.update(
            (a, system.card_of_app(a)) for a in range(len(chains))
        )
        ticks.append((
            now, model.bids(SLO, shed),
            _reference_bids(system, SLO, shed),
        ))
        update(now)

    controller.update = checked_update
    frontend.run()
    return {
        "ticks": ticks, "pairs": pairs, "calls": calls,
        "kinds": {kind for _, kind, _ in controller.actions},
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
