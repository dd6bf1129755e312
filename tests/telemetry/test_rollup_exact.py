"""Rollup rows against a per-window reference, byte for byte.

``compute_rollups`` folds spans and gauges into windows in a few fused
passes (one classifying scan, span-major busy accumulation with the
overlap written out, one cursor over each gauge, scopes emitted in
sorted order). The reference below is the definition instead: for each
(scope, key, window) it scans every relevant span or sample and sums in
the same order. On recorded ``batched`` (planner, backend scope, sheds),
``ramp`` (controller and brownout) and ``recovery`` (crashes, breakers,
health gauges) runs, at several window sizes, the serialized rows must
be identical.
"""

import json

import pytest

from repro.accelerators.base import AcceleratorSpec
from repro.backends import PlannerConfig
from repro.control import ControllerConfig
from repro.core import (
    AppChain,
    DMXSystem,
    KernelStage,
    Mode,
    MotionStage,
    SystemConfig,
)
from repro.faults import DomainCrash
from repro.profiles import WorkProfile
from repro.resilience import ResilienceConfig
from repro.resilience.brownout import BrownoutConfig
from repro.resilience.recovery import (
    RecoveryScenarioConfig,
    run_recovery_scenario,
)
from repro.serve import (
    BatchingConfig,
    Discipline,
    FrontendConfig,
    PoissonArrivals,
    RampArrivals,
    ServingFrontend,
    ShedPolicy,
    TenantSpec,
)
from repro.sim.tracing import exact_percentile
from repro.telemetry import RollupConfig, compute_rollups
from repro.telemetry.rollup import _carry_window, _span_overlap
from repro.workloads import build_benchmark_chains

KB = 1024
SPEC = AcceleratorSpec(name="accel", domain="d", speedup_vs_cpu=6.0)
SITE_PHASES = ("kernel", "restructuring", "movement", "control", "recovery")


def _labelled(telemetry, name, label):
    return {
        dict(g.labels)[label]: list(g.samples)
        for g in telemetry.metrics.gauges()
        if g.name == name and label in dict(g.labels)
    }


def _reference_rows(telemetry, w, slo_s, quantiles=(0.50, 0.95, 0.99)):
    """The rollup rows by definition, one window at a time."""
    spans = [s for s in telemetry.spans if s.end is not None]
    instants = telemetry.instants
    queue = _labelled(telemetry, "queue_depth", "tenant")
    health = _labelled(telemetry, "health_score", "target")
    planner = _labelled(telemetry, "planner_queue_depth", "backend")
    horizon = max(
        [0.0] + [s.end for s in spans] + [i.time for i in instants]
        + [samples[-1][0] for gauges in (queue, health, planner)
           for samples in gauges.values() if samples]
    )
    n = int(horizon // w) + 1 if horizon > 0 else 1
    clients, sites, backends = {}, {}, {}
    for s in spans:
        if s.category == "client":
            tenant = str(s.attrs.get("tenant") or s.actor)
            clients.setdefault(tenant, []).append(s)
        elif s.actor and s.phase in SITE_PHASES and s.category != "batch":
            sites.setdefault(s.actor, []).append(s)
        if s.category == "stage" and s.attrs.get("backend"):
            backends.setdefault(str(s.attrs["backend"]), []).append(s)
    sheds = {}
    for i in instants:
        if i.category == "admission" and i.name in (
            "shed", "brownout_shed", "rate_limited"
        ):
            sheds.setdefault(i.actor, []).append(i.time)
    breakers = {}
    for i in instants:
        if i.category == "breaker" and i.name.startswith("breaker_"):
            state = str(i.attrs.get("state") or i.name[len("breaker_"):])
            if state != "reroute":
                breakers.setdefault(i.actor, []).append((i.time, state))

    def busy_row(members, k, start, end):
        busy = 0.0
        for s in members:
            busy += _span_overlap(s, start, end)
        landed = sum(1 for s in members if int(s.end // w) == k)
        return {"busy_s": busy, "utilization": busy / w, "legs": landed}

    rows = []

    def emit(scope, key, k, start, end, stats):
        rows.append({
            "kind": "rollup", "scope": scope, "key": key, "window": k,
            "start": start, "end": end, "stats": stats,
        })

    for backend in sorted({*backends, *planner}):
        for k in range(n):
            start, end = k * w, (k + 1) * w
            stats = busy_row(backends.get(backend, ()), k, start, end)
            depth = _carry_window(planner.get(backend, ()), start, end)
            if depth is not None:
                stats["queue_depth_mean"], stats["queue_depth_max"] = depth
            emit("backend", backend, k, start, end, stats)
    for site in sorted({*sites, *health, *breakers}):
        for k in range(n):
            start, end = k * w, (k + 1) * w
            stats = busy_row(sites.get(site, ()), k, start, end)
            seen = [v for t, v in health.get(site, ()) if t <= end]
            if seen:
                stats["health"] = seen[-1]
            if breakers.get(site):
                states = [x for t, x in breakers[site] if t <= end]
                stats["breaker_state"] = states[-1] if states else "closed"
            emit("site", site, k, start, end, stats)
    for tenant in sorted({*clients, *queue, *sheds}):
        for k in range(n):
            start, end = k * w, (k + 1) * w
            members = [
                s for s in clients.get(tenant, ()) if int(s.end // w) == k
            ]
            failed = sum(1 for s in members if s.attrs.get("failed"))
            violations = sum(
                1 for s in members
                if not s.attrs.get("failed") and s.duration > slo_s
            )
            stats = {
                "completed": len(members), "failed": failed,
                "violations": violations,
                "goodput_rps": (len(members) - failed - violations) / w,
                "shed": sum(
                    1 for t in sheds.get(tenant, ()) if int(t // w) == k
                ),
            }
            if members:
                latencies = sorted(s.duration for s in members)
                stats["mean_s"] = sum(latencies) / len(latencies)
                stats["max_s"] = latencies[-1]
                for q in quantiles:
                    stats[f"p{round(q * 100)}_s"] = exact_percentile(
                        latencies, q
                    )
            depth = _carry_window(queue.get(tenant, ()), start, end)
            if depth is not None:
                stats["queue_depth_mean"], stats["queue_depth_max"] = depth
            emit("tenant", tenant, k, start, end, stats)
    return rows


def _rpc_chains(n):
    profile = WorkProfile(
        name="motion", bytes_in=16 * KB, bytes_out=8 * KB, elements=16384,
        ops_per_element=20.0, gather_fraction=0.3,
    )
    return [
        AppChain(name=f"app{i}", stages=[
            KernelStage("k1", SPEC, cpu_time_s=30e-6, accel_time_s=2e-6,
                        output_bytes=16 * KB),
            MotionStage("m", profile, input_bytes=16 * KB,
                        output_bytes=8 * KB, cpu_threads=3),
            KernelStage("k2", SPEC, cpu_time_s=24e-6, accel_time_s=2e-6,
                        output_bytes=4 * KB),
        ])
        for i in range(n)
    ]


def _batched():
    chains = _rpc_chains(2)
    system = DMXSystem(
        chains, SystemConfig(mode=Mode.STANDALONE), backends=PlannerConfig(),
    )
    # Short admission queues that reject: the run records sheds too.
    tenants = [
        TenantSpec(name=c.name, arrivals=PoissonArrivals(400e3),
                   n_requests=80, queue_capacity=1)
        for c in chains
    ]
    return ServingFrontend(system, tenants, FrontendConfig(
        max_inflight=8, shed=ShedPolicy.REJECT, discipline=Discipline.FCFS,
        slo_s=500e-6, batching=BatchingConfig(max_batch=8, window_s=50e-6),
    ), seed=0).run()


def _ramp():
    segments = ((0.04, 250.0 / 4), (0.04, 970.0 / 4))
    chains = build_benchmark_chains("sound-detection", 4)
    system = DMXSystem(
        chains, SystemConfig(mode=Mode.STANDALONE),
        resilience=ResilienceConfig(seed=0),
    )
    tenants = [
        TenantSpec(name=c.name, arrivals=RampArrivals(segments=segments),
                   n_requests=round(sum(d * r for d, r in segments)),
                   priority=i % 2)
        for i, c in enumerate(chains)
    ]
    return ServingFrontend(system, tenants, FrontendConfig(
        max_inflight=6, discipline=Discipline.WRR, slo_s=30e-3,
        brownout=BrownoutConfig(min_dwell_s=4e-3),
        controller=ControllerConfig(standby_cards=1, deescalate_fraction=0.2),
    ), seed=0).run()


def _recovery():
    return run_recovery_scenario(RecoveryScenarioConfig(
        offered_rps=560.0,
        crashes=(DomainCrash("drx.s0", at_s=0.05, revive_at_s=0.08),),
        n_tenants=4, requests_per_tenant=40, seed=0,
    )).serve


RUNS = {
    "batched": (_batched, (20e-6, 70e-6, 0.5e-3)),
    "ramp": (_ramp, (1e-3, 4e-3, 25e-3)),
    "recovery": (_recovery, (2e-3, 7e-3, 30e-3)),
}


@pytest.fixture(scope="module", params=sorted(RUNS))
def recorded(request):
    make, windows = RUNS[request.param]
    return request.param, make(), windows


def test_rollup_rows_match_the_per_window_reference(recorded):
    name, result, windows = recorded
    scopes = set()
    for w in windows:
        rollups = compute_rollups(
            result.telemetry, RollupConfig(window_s=w), slo_s=result.slo_s
        )
        got = [json.dumps(row) for row in rollups.to_rows()]
        want = [
            json.dumps(row)
            for row in _reference_rows(result.telemetry, w, result.slo_s)
        ]
        assert len(got) == len(want), (name, w)
        mismatched = [(g, r) for g, r in zip(got, want) if g != r]
        assert not mismatched, (name, w, len(mismatched), mismatched[0])
        scopes |= {cell.scope for cell in rollups.windows}
    expected = {"tenant", "site"} | ({"backend"} if name == "batched" else set())
    assert scopes == expected
