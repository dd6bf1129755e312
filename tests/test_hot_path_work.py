"""Work counts on the serving hot path: computed only when read, and
only once when it cannot change.

Wall-clock asserts stay off shared CI runners (see the engine-speed
job), so these pin *counts* on one tiny ``batched`` scenario (16 KB RPC
legs through batch formation and the all-backend planner) and one tiny
``knee`` scenario (MB legs on the single-request path):

* a tracker that retains its samples answers percentiles exactly and
  replays P² only on demand, so a run makes no ``P2Quantile.add`` call;
* a backend prices a leg's contention-free half (``unloaded()``) once
  per distinct leg — each plan then reads only live queue depths;
* ``HostCPU`` runs the top-down model once per distinct profile;
* no ``Request`` becomes cyclic garbage (a released request no longer
  holds itself as its value), so none waits for the cyclic collector;
* a fabric reads each link's bandwidth only when it first prices a
  route, so the reads follow the distinct routes, not the crossings;
* ``DMXSystem`` builds each motion stage's fused profile once.
"""

import gc
from collections import Counter

import pytest

from repro.accelerators.base import AcceleratorSpec
from repro.backends import PlannerConfig
from repro.backends.base import CPUBackend, DRXBackend
from repro.backends.dsa import DSABackend
from repro.backends.xdma import XDMABackend
from repro.core import (
    AppChain,
    DMXSystem,
    KernelStage,
    Mode,
    MotionStage,
    SystemConfig,
)
from repro.core import system as system_module
from repro.cpu.topdown import TopDownModel
from repro.interconnect import Fabric, PCIeLink
from repro.profiles import WorkProfile
from repro.serve import (
    BatchingConfig,
    Discipline,
    FrontendConfig,
    P2Quantile,
    PoissonArrivals,
    ServingFrontend,
    ShedPolicy,
    TenantSpec,
)
from repro.sim.resources import Request
from repro.workloads import build_benchmark_chains

KB = 1024
SPEC = AcceleratorSpec(name="accel", domain="d", speedup_vs_cpu=6.0)


def _rpc_chains():
    return [
        AppChain(
            name=f"app{i}",
            stages=[
                KernelStage("k1", SPEC, cpu_time_s=30e-6, accel_time_s=2e-6,
                            output_bytes=16 * KB),
                MotionStage(
                    "m",
                    WorkProfile(
                        name="motion", bytes_in=16 * KB, bytes_out=8 * KB,
                        elements=16384, ops_per_element=20.0,
                        gather_fraction=0.3,
                    ),
                    input_bytes=16 * KB, output_bytes=8 * KB, cpu_threads=3,
                ),
                KernelStage("k2", SPEC, cpu_time_s=24e-6, accel_time_s=2e-6,
                            output_bytes=4 * KB),
            ],
        )
        for i in range(2)
    ]


def _serve(system, chains, load, requests, slo_s, **config):
    tenants = [
        TenantSpec(
            name=chain.name, arrivals=PoissonArrivals(load / len(chains)),
            n_requests=requests,
        )
        for chain in chains
    ]
    return ServingFrontend(
        system, tenants,
        FrontendConfig(
            max_inflight=8, shed=ShedPolicy.QUEUE,
            discipline=Discipline.FCFS, slo_s=slo_s, **config,
        ),
        seed=0,
    ).run()


def _batched():
    for mode, load in ((Mode.MULTI_AXL, 60e3), (Mode.STANDALONE, 340e3)):
        chains = _rpc_chains()
        system = DMXSystem(
            chains, SystemConfig(mode=mode), backends=PlannerConfig(),
        )
        _serve(
            system, chains, load, 60, 500e-6, sample_period_s=None,
            batching=BatchingConfig(max_batch=8, window_s=50e-6),
        )


def _knee():
    for mode, load in ((Mode.MULTI_AXL, 310.0), (Mode.BUMP_IN_WIRE, 870.0)):
        chains = build_benchmark_chains("sound-detection", 2)
        system = DMXSystem(chains, SystemConfig(mode=mode))
        _serve(system, chains, load, 12, 50e-3)


@pytest.fixture(scope="module", params=["batched", "knee"])
def counts(request):
    """Run one scenario with the hot-path computations counted, and
    with the cyclic collector off, keeping whatever it would free."""
    p2 = Counter()
    unloaded = Counter()
    analyze = Counter()
    work = Counter()
    routes = {}  # (id(fabric), src, dst) -> (fabric, src, dst)
    fused_stages = {}  # (id(system), id(stage)) -> (system, stage)

    def counting(method, tally, key):
        def wrapper(self, arg):
            tally[key(self, arg)] += 1
            return method(self, arg)
        return wrapper

    def routed(method, kind):
        def wrapper(fabric, src, dst, nbytes):
            work[kind] += 1
            routes[(id(fabric), src, dst)] = (fabric, src, dst)
            return method(fabric, src, dst, nbytes)
        return wrapper

    bandwidth = PCIeLink.bandwidth.fget

    def counted_bandwidth(link):
        work["bandwidth_reads"] += 1
        return bandwidth(link)

    replace = system_module.replace

    def counted_replace(obj, **changes):
        work["fused_builds"] += 1
        return replace(obj, **changes)

    fused = DMXSystem._fused

    def counted_fused(system, stage):
        fused_stages[(id(system), id(stage))] = (system, stage)
        return fused(system, stage)

    gc.collect()
    was_enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(P2Quantile, "add", counting(
                P2Quantile.add, p2, lambda est, x: est.q
            ))
            for cls in (DRXBackend, CPUBackend, DSABackend, XDMABackend):
                patch.setattr(cls, "unloaded", counting(
                    cls.unloaded, unloaded,
                    lambda backend, leg: (backend, leg),
                ))
            patch.setattr(TopDownModel, "analyze", counting(
                TopDownModel.analyze, analyze, lambda model, p: (model, p)
            ))
            patch.setattr(Fabric, "transfer",
                          routed(Fabric.transfer, "crossings"))
            patch.setattr(Fabric, "unloaded_latency",
                          routed(Fabric.unloaded_latency, "estimates"))
            patch.setattr(PCIeLink, "bandwidth", property(counted_bandwidth))
            patch.setattr(system_module, "replace", counted_replace)
            patch.setattr(DMXSystem, "_fused", counted_fused)
            {"batched": _batched, "knee": _knee}[request.param]()
        gc.collect()
        cyclic = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    return {
        "scenario": request.param, "p2": p2, "unloaded": unloaded,
        "analyze": analyze, "work": work, "routes": routes,
        "fused_stages": fused_stages, "cyclic": cyclic,
    }


def test_retained_trackers_make_no_p2_updates(counts):
    assert sum(counts["p2"].values()) == 0


def test_each_leg_is_priced_once_per_backend(counts):
    unloaded = counts["unloaded"]
    if counts["scenario"] == "knee":
        assert not unloaded  # no planner: the static path prices nothing
        return
    # The planner priced legs on every backend the gather-heavy RPC leg
    # is eligible for (XDMA cannot express it)...
    assert {backend.kind for backend, _ in unloaded} == {"drx", "cpu", "dsa"}
    # ...and never the same (backend, leg) twice.
    assert unloaded == Counter(dict.fromkeys(unloaded, 1))


def test_topdown_model_runs_once_per_profile_per_host(counts):
    analyze = counts["analyze"]
    assert analyze  # MULTI_AXL restructures on the host in both
    assert analyze == Counter(dict.fromkeys(analyze, 1))


def test_no_request_reaches_the_cyclic_collector(counts):
    assert counts["work"]["crossings"]  # every crossing requests its links
    assert counts["cyclic"]["Request"] == 0


def test_link_bandwidth_is_read_once_per_priced_route(counts):
    work, routes = counts["work"], counts["routes"]
    assert work["crossings"] > len(routes)  # routes are crossed again
    assert work["bandwidth_reads"] == sum(
        len({id(link) for link in fabric.path(src, dst)[0]})
        for fabric, src, dst in routes.values()
    )


def test_fused_profile_is_built_once_per_stage(counts):
    assert counts["fused_stages"]  # both scenarios run DRX legs
    assert counts["work"]["fused_builds"] == len(counts["fused_stages"])
