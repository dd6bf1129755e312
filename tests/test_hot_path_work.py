"""Work counts on the serving hot path: computed only when read, and
only once when it cannot change.

Wall-clock asserts mean nothing on shared CI runners, so these pin
*counts* on one tiny ``batched`` scenario (16 KB RPC legs through batch
formation and the all-backend planner) and one tiny ``knee`` scenario
(MB legs on the single-request path):

* a tracker answers percentiles exactly from its samples and feeds no
  P² estimator, so a run makes no ``P2Quantile.add`` call;
* a backend prices a leg's contention-free half (``unloaded()``) once
  per distinct leg — each plan then reads only live queue depths;
* ``HostCPU`` runs the top-down model once per distinct profile;
* no ``Request`` becomes cyclic garbage (a released request no longer
  holds itself as its value), so none waits for the cyclic collector;
* a fabric reads each link's bandwidth only when it first prices a
  route, so the reads follow the distinct routes, not the crossings;
* ``DMXSystem`` builds each motion stage's fused profile once;
* the frontend submits every request through ``submit_batch`` (a lone
  request is a batch of one), never through the ``submit`` wrapper;
* the leg routers build one ``LegSpec`` per distinct (source, count,
  unit), and the unarmed static route never walks its ranking;
* an armed static route over healthy units asks each leg's breaker
  once and never builds a leg for a sibling unit;
* a leg step (phase span plus phase booking) and the span step around
  a motion stage or a DMA are context managers, not generators, so no
  step adds a frame to the ``yield from`` chain a resume passes
  through; the resumes and events per run stay pinned;
* on a small crash-and-revive run's artifact, the writer builds no
  JSON encoder per line, the loader calls ``json.loads`` on no line the
  writer wrote, and neither side holds the whole file: each one's
  ``tracemalloc`` peak (the loader's net of the artifact it returns)
  stays under half the file's size.
"""

import gc
import json
import os
import tracemalloc
from collections import Counter

import pytest

from repro.accelerators.base import AcceleratorSpec
from repro.backends import PlannerConfig
from repro.backends import base as base_module
from repro.backends import planner as planner_module
from repro.backends.base import CPUBackend, DRXBackend, PriceMemo
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
from repro.faults import DomainCrash
from repro.interconnect import Fabric, PCIeLink
from repro.profiles import WorkProfile
from repro.resilience import ResilienceConfig
from repro.resilience.control import ControlPlane
from repro.resilience.recovery import (
    RecoveryScenarioConfig,
    run_recovery_scenario,
)
from repro.sim.engine import Process
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
from repro.telemetry import artifact as artifact_module
from repro.telemetry import load_artifact, write_artifact
from repro.workloads import build_benchmark_chains

KB = 1024
SPEC = AcceleratorSpec(name="accel", domain="d", speedup_vs_cpu=6.0)


def _rpc_chains(n=2):
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
        for i in range(n)
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

    submit = DMXSystem.submit

    def counted_submit(system, *args, **kwargs):
        work["submits"] += 1
        return submit(system, *args, **kwargs)

    walk = planner_module.admission_walk

    def counted_walk(*args):
        work["walks"] += 1
        return walk(*args)

    legspecs = Counter()
    legspec = base_module.LegSpec

    def counted_legspec(**fields):
        spec = legspec(**fields)
        legspecs[(spec.drx, spec.src, spec.count)] += 1
        return spec

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
            patch.setattr(DMXSystem, "submit", counted_submit)
            patch.setattr(planner_module, "admission_walk", counted_walk)
            patch.setattr(base_module, "LegSpec", counted_legspec)
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
        "legspecs": legspecs,
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


def test_frontend_submits_through_submit_batch_only(counts):
    assert counts["work"]["submits"] == 0


def test_one_legspec_per_source_count_and_unit(counts):
    legspecs = counts["legspecs"]
    assert legspecs  # both scenarios route DRX-placement legs
    assert legspecs == Counter(dict.fromkeys(legspecs, 1))


def test_unarmed_static_route_never_walks(counts):
    if counts["scenario"] == "knee":
        assert counts["work"]["walks"] == 0
    else:  # the planner walks its ranking on every plan
        assert counts["work"]["walks"] > 0


def test_armed_static_route_asks_each_healthy_home_once():
    """STANDALONE with two cards and the control plane armed: every leg
    is admitted on its home card at the first ask, so no sibling leg is
    ever built."""
    work = Counter()
    route = planner_module.FixedRanking.route
    admit = ControlPlane.admit
    leg = PriceMemo.leg

    def counted_route(router, *args):
        work["routes"] += 1
        return route(router, *args)

    def counted_admit(control, target):
        work["admits"] += 1
        return admit(control, target)

    def counted_leg(memo, *args, placement=None, **kwargs):
        work["siblings"] += placement is not None
        return leg(memo, *args, placement=placement, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planner_module.FixedRanking, "route", counted_route)
        patch.setattr(ControlPlane, "admit", counted_admit)
        patch.setattr(PriceMemo, "leg", counted_leg)
        system = DMXSystem(
            _rpc_chains(4), SystemConfig(mode=Mode.STANDALONE),
            resilience=ResilienceConfig(),
        )
        assert len(system.drx_devices) == 2
        system.run_latency(requests_per_app=3)
    assert work["routes"] == 4 * 3
    assert work["admits"] == work["routes"]
    assert work["siblings"] == 0


#: (mode, count) -> (resumes, events) of two sound-detection apps, each
#: submitting two requests of ``count`` members at t=0.
RESUMES = {
    (Mode.STANDALONE, 1): (76, 80),
    (Mode.STANDALONE, 4): (124, 128),
    (Mode.BUMP_IN_WIRE, 1): (72, 76),
    (Mode.BUMP_IN_WIRE, 4): (120, 124),
    (Mode.PCIE_INTEGRATED, 1): (72, 84),
    (Mode.PCIE_INTEGRATED, 4): (120, 132),
    (Mode.MULTI_AXL, 1): (112, 128),
    (Mode.MULTI_AXL, 4): (280, 332),
}

#: The deepest ``yield from`` chain any of those resumes passes through,
#: the process's own generator included: ``submit_batch``, ``_request``,
#: ``_motion``, the leg (``_guarded_leg`` and ``DRXBackend.execute``, or
#: ``CPUBackend.motion`` and the host-staged wrapper ``leg_transfer``
#: returns), then the DMA engine's ``transfer`` and ``_attempt`` and the
#: fabric's ``transfer``. Span steps and phase steps are context
#: managers and add no frame.
MAX_RESUME_DEPTH = 8


@pytest.mark.parametrize("mode,count", sorted(
    RESUMES, key=lambda key: (key[0].value, key[1])
), ids=lambda v: getattr(v, "value", v))
def test_a_leg_step_adds_no_generator_frame(mode, count):
    resumes = Counter()
    resume = Process._resume

    def counted_resume(proc, event):
        gen, depth = proc._generator, 0
        while gen is not None:
            depth += 1
            gen = gen.gi_yieldfrom
        resumes["resumes"] += 1
        resumes["depth"] = max(resumes["depth"], depth)
        return resume(proc, event)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Process, "_resume", counted_resume)
        system = DMXSystem(
            build_benchmark_chains("sound-detection", 2),
            SystemConfig(mode=mode),
        )
        for _ in range(2):
            for app in range(2):
                system.sim.spawn(system.submit_batch(app, count))
        system.sim.run()
    assert (resumes["resumes"], system.sim.events_processed) == (
        RESUMES[mode, count]
    )
    assert resumes["depth"] == MAX_RESUME_DEPTH


@pytest.fixture(scope="module")
def recovery_artifact(tmp_path_factory):
    """A small crash-and-revive run (two cards die and come back): its
    telemetry and the artifact it wrote and verified."""
    path = str(tmp_path_factory.mktemp("recovery") / "recovery.jsonl")
    result = run_recovery_scenario(RecoveryScenarioConfig(
        offered_rps=560.0,
        crashes=(
            DomainCrash("drx.s0", at_s=0.02, revive_at_s=0.04),
            DomainCrash("drx.s1", at_s=0.06, revive_at_s=0.08),
        ),
        requests_per_tenant=20,
        artifact_path=path,
    ))
    assert any(s.attrs.get("abandoned") for s in result.serve.telemetry.spans)
    return result.serve.telemetry, path


def test_artifact_writer_builds_no_encoder_per_line(
    recovery_artifact, tmp_path
):
    """No encoder is built per line, and a recorded span row (``int``
    ids, ``str`` names, ``float`` or ``np.float64`` times) reaches the
    shared encoder only for non-empty attributes."""
    telemetry, path = recovery_artifact
    built = Counter()
    init = json.JSONEncoder.__init__
    dumps = artifact_module._dumps

    def counted_init(encoder, *args, **kwargs):
        built["encoders"] += 1
        init(encoder, *args, **kwargs)

    def counted_dumps(obj):
        built["encoded"] += 1
        return dumps(obj)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(json.JSONEncoder, "__init__", counted_init)
        patch.setattr(artifact_module, "_dumps", counted_dumps)
        write_artifact(str(tmp_path / "again.jsonl"), telemetry)
    assert built["encoders"] == 0
    with open(path, encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
    bare = sum(1 for span in telemetry.spans if not span.attrs)
    assert bare and built["encoded"] == lines - bare


def test_artifact_loader_calls_json_loads_on_no_written_line(
    recovery_artifact,
):
    telemetry, path = recovery_artifact
    calls = Counter()
    loads = json.loads

    def counted_loads(*args, **kwargs):
        calls["loads"] += 1
        return loads(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(json, "loads", counted_loads)
        artifact = load_artifact(path)
    assert len(artifact.spans) == len(telemetry.spans)
    assert calls["loads"] == 0


def test_artifact_round_trip_never_holds_the_whole_file(
    recovery_artifact, tmp_path
):
    telemetry, path = recovery_artifact
    size = os.path.getsize(path)
    load_artifact(path)  # lazy imports happen outside the trace
    tracemalloc.start()
    try:
        write_artifact(str(tmp_path / "again.jsonl"), telemetry)
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        artifact = load_artifact(path)
        returned, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert artifact.spans
    assert write_peak < size / 2
    assert load_peak - returned < size / 2
