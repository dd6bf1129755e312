"""Controller-disarmed runs are byte-identical to pre-controller builds.

The two scenario functions below were run on the tree *before*
:mod:`repro.control` existed and the SHA-256 of their canonical-JSON
output pinned here. A frontend with ``controller=None`` (the default)
must reproduce those hashes byte for byte: arming support — the live
weight table, per-tenant in-flight counts, the controller hook points —
may not perturb a single event, float, or dict ordering in a disarmed
run. If a refactor legitimately changes serving output, recapture both
hashes on a controller-free build and update them together.
"""

import hashlib
import json

from repro.core import DMXSystem, Mode, SystemConfig
from repro.resilience import ResilienceConfig
from repro.resilience.brownout import BrownoutConfig
from repro.serve import (
    Discipline,
    FrontendConfig,
    PoissonArrivals,
    ServingFrontend,
    SweepConfig,
    TenantSpec,
    run_sweep,
)
from repro.workloads import build_benchmark_chains

SERVE_GOLDEN_SHA256 = (
    "cc96f296ea250629912fe0fb8d6d04a8d2e3b015e83679d80028307cfb9246ef"
)
SWEEP_GOLDEN_SHA256 = (
    "a773bdaae375465defdb9fd7052cb5b2edbad5bfa9f5a1773b462c8e21e0dc2c"
)


def golden_serve_result():
    """A serving run exercising WRR + brownout + resilience, no controller."""
    chains = build_benchmark_chains("sound-detection", 4)
    system = DMXSystem(
        chains,
        SystemConfig(mode=Mode.STANDALONE),
        resilience=ResilienceConfig(seed=7),
    )
    tenants = [
        TenantSpec(
            name=chain.name,
            arrivals=PoissonArrivals(450.0),
            n_requests=24,
            weight=1 + (i % 2),
            priority=i % 2,
        )
        for i, chain in enumerate(chains)
    ]
    return ServingFrontend(
        system,
        tenants,
        FrontendConfig(
            max_inflight=6,
            discipline=Discipline.WRR,
            slo_s=40e-3,
            brownout=BrownoutConfig(min_dwell_s=5e-3),
        ),
        seed=3,
    ).run()


def golden_serve_dict():
    return golden_serve_result().to_dict()


def golden_sweep_json():
    config = SweepConfig(
        offered_loads_rps=(300.0, 600.0),
        benchmark="sound-detection",
        n_tenants=4,
        requests_per_tenant=12,
        modes=(Mode.STANDALONE,),
        seed=1,
    )
    return run_sweep(config).to_json()


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_disarmed_serve_run_matches_pre_controller_golden():
    serve = json.dumps(
        golden_serve_dict(), sort_keys=True, separators=(",", ":")
    )
    assert _sha(serve) == SERVE_GOLDEN_SHA256


def test_disarmed_sweep_matches_pre_controller_golden():
    assert _sha(golden_sweep_json()) == SWEEP_GOLDEN_SHA256
