"""Byte goldens for the request path, single and coalesced.

Each scenario below drives :meth:`DMXSystem.submit_batch` on a small
system and hashes everything a run leaves behind: the full telemetry
artifact (every span with its attributes and times, every instant,
counter and gauge) plus the serialized request records. The first rows
were captured on the tree where singles and batches still ran through
two separate copies of the motion code; the one ``count``-parametrized
path must reproduce every hash byte for byte. The routing rows (breakers
forced open, a decommissioned home, ``force_cpu``) were captured while
the static route and the planner were still two separate walks, and pin
every way a leg can be routed. The two single-engine planner rows run
every leg, clean and unfaulted, on the XDMA or the DSA engine. The
fault-mix row arms a :class:`~repro.faults.FaultPlan` whose run writes
every kind of fault note, so the ``fault`` instants are pinned byte for
byte. Two crash rows pin the degrade paths of a failing leg: one arms a
FaultPlan and a CrashPlan together, so legs both fall back and are
rescued, and one abandons every rescue past a zero rescue deadline. The
serving
rows hash one unbatched and one batched
:class:`~repro.serve.ServingFrontend` run, client and batch
span trees included. The controller rows hash two runs under the
closed-loop controller: the benchmark's ``ramp`` scenario at its check
size, where the controller picks the brownout tier, and the ladder
stepping tiers itself beside a controller that leaves them alone. If a
change legitimately alters request-path output, recapture the tables
with
``PYTHONPATH=src python tests/core/test_request_path_golden.py``.

The ``count == 1`` rows double as the batch-of-one contract:
``submit_batch(i, 1)`` is indistinguishable from ``submit(i)`` — no
batch span, no ``batch=`` attribute, the same floats.
"""

import dataclasses
import hashlib
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
from repro.faults import (
    CrashPlan,
    DomainCrash,
    FaultPlan,
    FaultPolicy,
    RetryPolicy,
)
from repro.profiles import WorkProfile
from repro.resilience import BreakerConfig, ResilienceConfig
from repro.resilience.brownout import BrownoutConfig
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
from repro.telemetry import ObservationConfig, artifact_lines
from repro.workloads import build_benchmark_chains

KB = 1024
SPEC = AcceleratorSpec(name="accel", domain="d", speedup_vs_cpu=6.0)


def _chain(i):
    profile = WorkProfile(
        name="motion", bytes_in=16 * KB, bytes_out=8 * KB,
        elements=16384, ops_per_element=20.0, gather_fraction=0.3,
    )
    return AppChain(
        name=f"app{i}",
        stages=[
            KernelStage("k1", SPEC, cpu_time_s=30e-6, accel_time_s=2e-6,
                        output_bytes=16 * KB),
            MotionStage("m1", profile, input_bytes=16 * KB,
                        output_bytes=8 * KB, cpu_threads=3),
            KernelStage("k2", SPEC, cpu_time_s=24e-6, accel_time_s=2e-6,
                        output_bytes=16 * KB),
            MotionStage("m2", profile, input_bytes=16 * KB,
                        output_bytes=8 * KB, cpu_threads=2),
            KernelStage("k3", SPEC, cpu_time_s=20e-6, accel_time_s=2e-6,
                        output_bytes=4 * KB),
        ],
    )


def _affine_chain(i):
    """``_chain``'s shape with motion legs an XDMA descriptor can encode
    (strided, gather-free, a few ops per element)."""
    profile = WorkProfile(
        name="affine", bytes_in=16 * KB, bytes_out=16 * KB,
        elements=4096, ops_per_element=2.0, branch_fraction=0.02,
    )
    return AppChain(
        name=f"app{i}",
        stages=[
            KernelStage("k1", SPEC, cpu_time_s=30e-6, accel_time_s=2e-6,
                        output_bytes=16 * KB),
            MotionStage("m1", profile, input_bytes=16 * KB,
                        output_bytes=16 * KB, cpu_threads=3),
            KernelStage("k2", SPEC, cpu_time_s=24e-6, accel_time_s=2e-6,
                        output_bytes=16 * KB),
            MotionStage("m2", profile, input_bytes=16 * KB,
                        output_bytes=16 * KB, cpu_threads=2),
            KernelStage("k3", SPEC, cpu_time_s=20e-6, accel_time_s=2e-6,
                        output_bytes=4 * KB),
        ],
    )


#: drx.s0 dies while a leg is restructuring on it (at count 1 and 4).
_CRASH = CrashPlan(crashes=(DomainCrash(target="drx.s0", at_s=40e-6),))

#: DRX legs that hang or fail often enough to fall back at counts 1 and 4.
_CRASH_FAULTS = FaultPlan(
    seed=2, drx=FaultPolicy(hang_p=0.3, fail_p=0.2), drx_deadline_s=5e-3,
)

#: The control plane with a cooldown longer than any run here, so a
#: breaker forced open stays open.
_ARMED = ResilienceConfig(
    seed=1, breaker=BreakerConfig(cooldown_s=100.0, cooldown_cap_s=100.0),
)

SCENARIOS = {
    **{mode.value: dict(mode=mode) for mode in Mode},
    "standalone-planned": dict(mode=Mode.STANDALONE, backends=PlannerConfig()),
    "bump-in-the-wire-planned": dict(
        mode=Mode.BUMP_IN_WIRE, backends=PlannerConfig()
    ),
    "standalone-drx-hang": dict(
        mode=Mode.STANDALONE,
        faults=FaultPlan(
            seed=1, drx=FaultPolicy(hang_p=1.0), drx_deadline_s=5e-3
        ),
    ),
    # Every fault note kind at counts 1 and 4: injected fails, hangs and
    # delays, DMA retries that run out, DRX fallbacks and requests that
    # give up.
    "standalone-fault-mix": dict(
        mode=Mode.STANDALONE,
        faults=FaultPlan(
            seed=4,
            dma=FaultPolicy(fail_p=0.3, delay_p=0.2),
            notify=FaultPolicy(fail_p=0.3),
            kernel=FaultPolicy(hang_p=0.2),
            drx=FaultPolicy(hang_p=0.3),
            drx_deadline_s=5e-3,
            dma_retry=RetryPolicy(max_attempts=2),
            dma_timeout_s=10e-3,
        ),
    ),
    "standalone-crash": dict(mode=Mode.STANDALONE, domains=_CRASH),
    # Both recovery planes at once: DRX legs hang or fail under the
    # deadline race while drx.s0 dies under them, so one run both falls
    # back and rescues.
    "standalone-crash-faults": dict(
        mode=Mode.STANDALONE, apps=4, faults=_CRASH_FAULTS, domains=_CRASH,
    ),
    # The same crash with a zero rescue deadline: a leg drained in
    # flight has already burned time, so its rescue is abandoned and its
    # request fails.
    "standalone-crash-rescue-deadline": dict(
        mode=Mode.STANDALONE,
        domains=dataclasses.replace(_CRASH, rescue_deadline_s=0.0),
    ),
    # Routing rows: ``apps`` chains (four give STANDALONE two cards and
    # PCIE_INTEGRATED two switches), the breakers in ``open`` forced
    # open before the first request, and ``force_cpu`` on every submit.
    "standalone-s0-open": dict(
        mode=Mode.STANDALONE, apps=4, resilience=_ARMED, open=("drx.s0",)
    ),
    "standalone-both-open": dict(
        mode=Mode.STANDALONE, apps=4, resilience=_ARMED,
        open=("drx.s0", "drx.s1"),
    ),
    "pcie-integrated-sw0-open": dict(
        mode=Mode.PCIE_INTEGRATED, apps=4, resilience=_ARMED,
        open=("drx.sw0",),
    ),
    "bump-in-the-wire-open": dict(
        mode=Mode.BUMP_IN_WIRE, resilience=_ARMED, open=("a0k0.drx",)
    ),
    "standalone-crash-armed": dict(
        mode=Mode.STANDALONE, apps=4, resilience=_ARMED,
        domains=CrashPlan(crashes=(DomainCrash(target="drx.s0", at_s=0.0),)),
    ),
    "standalone-force-cpu": dict(mode=Mode.STANDALONE, force_cpu=True),
    "standalone-planned-force-cpu": dict(
        mode=Mode.STANDALONE, backends=PlannerConfig(), force_cpu=True
    ),
    # The planner's cheapest bid here is the home DRX card.
    "standalone-planned-drx-open": dict(
        mode=Mode.STANDALONE, backends=PlannerConfig(), resilience=_ARMED,
        open=("drx.s0",),
    ),
    # Clean, fault-free legs on the two related-work engines: offered
    # one engine and the CPU, the planner sends every leg to the engine.
    "bump-in-the-wire-planned-xdma": dict(
        mode=Mode.BUMP_IN_WIRE, chain=_affine_chain,
        backends=PlannerConfig(candidates=("xdma", "cpu")),
    ),
    "standalone-planned-dsa": dict(
        mode=Mode.STANDALONE,
        backends=PlannerConfig(candidates=("dsa", "cpu")),
    ),
}

#: The engine each single-engine planner row runs every leg on.
ENGINE_ROWS = {
    "bump-in-the-wire-planned-xdma": "xdma",
    "standalone-planned-dsa": "dsa",
}


def _run(scenario, count, single=False):
    """Each app submits two back-to-back requests of ``count`` members
    (``single=True`` issues them through :meth:`DMXSystem.submit`);
    returns the drained system and records."""
    kwargs = dict(SCENARIOS[scenario])
    apps = kwargs.pop("apps", 2)
    opened = kwargs.pop("open", ())
    force_cpu = kwargs.pop("force_cpu", False)
    chain = kwargs.pop("chain", _chain)
    system = DMXSystem(
        [chain(i) for i in range(apps)],
        SystemConfig(mode=kwargs.pop("mode")),
        **kwargs,
    )
    for target in opened:
        system.control.breaker(target).force_open()
    records = []

    def client(app):
        for _ in range(2):
            if single:
                records.append((yield from system.submit(
                    app, force_cpu=force_cpu
                )))
            else:
                records.extend((yield from system.submit_batch(
                    app, count, force_cpu=force_cpu
                )))

    for app in range(apps):
        system.sim.spawn(client(app))
    system.sim.run()
    system.telemetry.finalize()
    return system, records


def _digest(telemetry, records, *extra):
    """SHA-256 of an artifact's lines, the records and ``extra`` dicts."""
    h = hashlib.sha256()
    for line in artifact_lines(telemetry):
        h.update(line.encode())
        h.update(b"\n")
    rows = [dataclasses.asdict(r) for r in records]
    h.update(json.dumps(rows, sort_keys=True).encode())
    for part in extra:
        h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def run_digest(scenario, count, single=False):
    """SHA-256 of one scenario's artifact lines + records."""
    system, records = _run(scenario, count, single)
    return _digest(system.telemetry, records)


#: Serving runs: two tenants on STANDALONE under a tight SLO, so the
#: brownout ladder reaches FORCE_CPU; ``batched`` adds batch formation.
SERVE_SCENARIOS = {
    "unbatched": {},
    "batched": dict(batching=BatchingConfig(max_batch=4, window_s=50e-6)),
}


def serve_run(scenario):
    """One :class:`ServingFrontend` run; returns the drained system and
    its :class:`ServeResult`."""
    system = DMXSystem(
        [_chain(i) for i in range(2)], SystemConfig(mode=Mode.STANDALONE)
    )
    tenants = [
        TenantSpec(
            name=f"app{i}", arrivals=PoissonArrivals(40e3), n_requests=24,
            priority=i,
        )
        for i in range(2)
    ]
    result = ServingFrontend(
        system, tenants,
        FrontendConfig(
            max_inflight=4, shed=ShedPolicy.QUEUE,
            discipline=Discipline.FCFS, slo_s=60e-6,
            brownout=BrownoutConfig(
                min_samples=4, min_dwell_s=20e-6, update_period_s=10e-6,
            ),
            **SERVE_SCENARIOS[scenario],
        ),
        seed=5,
    ).run()
    return system, result


def serve_digest(scenario):
    """SHA-256 of one serving run's artifact lines, records and
    ``ServeResult.to_dict()``."""
    system, result = serve_run(scenario)
    return _digest(system.telemetry, result.records, result.to_dict())


#: Closed-loop runs on the benchmark's check-size ``ramp`` scenario: four
#: sound-detection tenants on STANDALONE with resilience armed, one
#: 0.25 s leg at ~30% and one at ~115% of peak, one standby card and
#: rollups + alerts; the controller drives the tiers.
CONTROLLER_SCENARIOS = {
    "ramp": ControllerConfig(standby_cards=1, deescalate_fraction=0.2),
}


def controller_run(scenario, seed=0):
    """One controller-armed serving run; returns the drained system, the
    frontend and its :class:`ServeResult`."""
    chains = build_benchmark_chains("sound-detection", 4)
    system = DMXSystem(
        chains, SystemConfig(mode=Mode.STANDALONE),
        resilience=ResilienceConfig(seed=seed),
    )
    segments = ((0.25, 250.0 / 4), (0.25, 970.0 / 4))
    tenants = [
        TenantSpec(
            name=chain.name, arrivals=RampArrivals(segments=segments),
            n_requests=round(sum(d * r for d, r in segments)),
            priority=i % 2,
        )
        for i, chain in enumerate(chains)
    ]
    frontend = ServingFrontend(
        system, tenants,
        FrontendConfig(
            max_inflight=6, discipline=Discipline.WRR, slo_s=30e-3,
            brownout=BrownoutConfig(min_dwell_s=4e-3),
            controller=CONTROLLER_SCENARIOS[scenario],
            observation=ObservationConfig(),
        ),
        seed=seed,
    )
    return system, frontend, frontend.run()


def controller_digest(scenario):
    """SHA-256 of one controller run's artifact lines, records,
    ``ServeResult.to_dict()`` and controller actions."""
    system, frontend, result = controller_run(scenario)
    return _digest(
        system.telemetry, result.records, result.to_dict(),
        frontend.controller_actions,
    )


GOLDEN = {
    ('all-cpu', 1):
        'fe69e129eda2c77983d7936d1121f62af76c63cd31aaa09bcefa93c1d1994498',
    ('all-cpu', 4):
        '7016db6c96aa0a59f190025785096c488b14a62adab60e9432627e212c5f9eac',
    ('bump-in-the-wire-drx', 1):
        'ad28875f0688f72069e20c207a05fc30c292bed10dd24fa6203831a317ad1bd4',
    ('bump-in-the-wire-drx', 4):
        'e559b550cbc58c0a40933bbe02bf84e384eac1e382b9e9ffc013c8f22426bd80',
    ('bump-in-the-wire-open', 1):
        '1639e637cd38119137dd24fcdc81afce300e6147f7ed8defb8ef0ee79fd1f828',
    ('bump-in-the-wire-open', 4):
        '6b2ea3064d13c22bc43495cd6f2cfb2e9558639bd87dfbaf53b6824e4298b2ca',
    ('bump-in-the-wire-planned', 1):
        '0b2a6f3214af9db0c06d1d5c564da305da181561e3c6578d7c6283fdce964d30',
    ('bump-in-the-wire-planned', 4):
        '2b85c0535a421e77336c9b312724550a65df1f21f95e9f13b26a0fdf6e0a7697',
    ('bump-in-the-wire-planned-xdma', 1):
        '03d9861a6bf00aa089babed022364cd63e2408675ebb35d0208533fc1b6578be',
    ('bump-in-the-wire-planned-xdma', 4):
        '7c01128bd4a9367a3b9edf8f30132ca4cf9becf865d4abfbcf49b31aa484210d',
    ('integrated-drx', 1):
        '2ab8955d4a667e6a964ceb0af43d27b9baef6e27ec108ccbaedc513f33988ff6',
    ('integrated-drx', 4):
        '769c65f1a9de4e536f7a91a3e8c498d36236232b65ca4fc587f08085244eba02',
    ('multi-axl', 1):
        '5d5880278a5945d35cbc905b61141397ef872be5787998bdb10617b23f11f4fe',
    ('multi-axl', 4):
        'ed76fc438d5a454e5841be870ddb3cbeab7dede5ce92ebf311d8336ef5ca0052',
    ('pcie-integrated-drx', 1):
        '6d194deb74a80ae66557b3b3a01023e201c3f39a85220eaa7b92bf3407a58fa5',
    ('pcie-integrated-drx', 4):
        '2bca5825248b8e261165281f93f3d72a0e6ec38746cddc81ab323f7e9e18e946',
    ('pcie-integrated-sw0-open', 1):
        '18b894ca0a35af10e8c7ee0ea6d9799b7fec74f24a3dc91c0be77262bab8b617',
    ('pcie-integrated-sw0-open', 4):
        'ead1615f836bc2a98d76b0145e3eb414c30d1401ab0c4e6992613c4f5e4f3412',
    ('standalone-both-open', 1):
        'c9b54cfeb4056c122781cbc8d262efe11ae9d81b55dba7d449a9b310eda52618',
    ('standalone-both-open', 4):
        '1bc79ee3fe4b89ee829ccabef919f43873b0647cb07db4c70da9bafe0189f3a8',
    ('standalone-crash', 1):
        '78d4fcd2153d3cd0f989670dcc8e4134e209560f2a87dfd058fafecdd79dd8f9',
    ('standalone-crash', 4):
        'cbfb6e50d1174171528ea3928e2c49363dc7946918de02925718adc302f2c9cd',
    ('standalone-crash-armed', 1):
        '449d5df07b756a2192882664c3d1a2a5209fa24ea9108d2c62e1713526674256',
    ('standalone-crash-armed', 4):
        '22a38da5426104d25b73f15e142b23dce220228666e446e1eb1231a2e58223a3',
    ('standalone-crash-faults', 1):
        '8ed144da405de66b9a70446958d35736446cf5f0529e3bae5d698ded9e99caa4',
    ('standalone-crash-faults', 4):
        '03d99e3dbae9158de337584881491a6f58b97b0aeff756971dd450d92c6780ea',
    ('standalone-crash-rescue-deadline', 1):
        'a9a4b3da5e88ac2865b3eb035e2e464bb9c556d90ae42277e6c455a16df0f385',
    ('standalone-crash-rescue-deadline', 4):
        'a70bc7086eacb655e495dda38076a7b0baebb20d7ebbe5ac6bea452b170ffa6a',
    ('standalone-drx', 1):
        '90278cd13b2efe37d1942f757b5569606b622b4a922b7bb0218b03f8a3e47764',
    ('standalone-drx', 4):
        'aaf710d4b3d6767558f3a9faf9be74ae1d62be86cfb9a9fa30a7d8b57dd5e239',
    ('standalone-drx-hang', 1):
        'b06cd818a0c151f72c32f8cd4fe983f8304d8c8d55e6f638244e84c0b54975dd',
    ('standalone-drx-hang', 4):
        '3d4cd318c67d7d0387610db360989c16defb53ead752d6d4f0c08f00aee257bb',
    ('standalone-fault-mix', 1):
        '16331706b82c00070543103abfd1249a7cb055ef1cfd85d0275a67fca00acc6b',
    ('standalone-fault-mix', 4):
        '740130fd994566798a186eabc8cab497432da71387221ea39ff43fc189e450a9',
    ('standalone-force-cpu', 1):
        'ba6c797f889ebcbc554be3e125232208751ce71362824e4747a1d5d6e6a272ec',
    ('standalone-force-cpu', 4):
        'fba43c100089bfeddf0fccdc1b9ab6bfebc84190cdf1f064fedbe74f07325ed6',
    ('standalone-planned', 1):
        'b71f51fa79fae74ed11d7fa005fc4a646de3e02ef51b2bc9ae1dfb107255f074',
    ('standalone-planned', 4):
        '34ad9c37a783be104d671f7680160f69a42777ddc2147e69c310bda9de8fe843',
    ('standalone-planned-drx-open', 1):
        'b5cca357e87e0f050ba868bda19bf87bae70b75f9ca6afefb420ff473059145c',
    ('standalone-planned-drx-open', 4):
        'f4f8b5359e53c231f1303b0ee266ef2ad9a5b19256bd06bd200d1e2bc97692a4',
    ('standalone-planned-dsa', 1):
        'b7918c07f6528991beec94e120f8a9058d6b81d39d10c186155325588e7f7278',
    ('standalone-planned-dsa', 4):
        '80d9d5c191f622f81f0bf606f85814377a89cfcfff88df4a7b147d1fa0002ded',
    ('standalone-planned-force-cpu', 1):
        'eefade7bcd942cf8310ca5bb980cf30b9bcefd93fc2b6bcea2f0eabe98fecbad',
    ('standalone-planned-force-cpu', 4):
        '749a173bae03c9377ac237d56e42ce0cbcd7f8a44f8baa63e515a5a2891285fd',
    ('standalone-s0-open', 1):
        'b265800954e9c5aa2b021720c6b19c04ce3516ed5dd8d199ed3a26a392f17352',
    ('standalone-s0-open', 4):
        '7956655b29d9d4ca02dabf77782a727dde72709ebee769d765842055e3188565',
}


SERVE_GOLDEN = {
    'batched':
        'b1483467e0561e5cc651d99cd5eac9fa51373d389d16e02f995d0c501d99eac5',
    'unbatched':
        '1f373be249e720ae282cb6f82132857581be8cb116b65383a432fe58b5ddf4a0',
}


CONTROLLER_GOLDEN = {
    'ramp':
        '9c2499b15dbe03824f3a2993a49ea7753bad3229311103cdbea5cf7583d2bbb1',
}


@pytest.mark.parametrize("scenario,count", sorted(GOLDEN))
def test_request_path_matches_golden(scenario, count):
    assert run_digest(scenario, count) == GOLDEN[scenario, count]


@pytest.mark.parametrize("scenario", sorted(SERVE_GOLDEN))
def test_serving_run_matches_golden(scenario):
    assert serve_digest(scenario) == SERVE_GOLDEN[scenario]


@pytest.mark.parametrize("scenario", sorted(CONTROLLER_GOLDEN))
def test_controller_run_matches_golden(scenario):
    assert controller_digest(scenario) == CONTROLLER_GOLDEN[scenario]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_batch_of_one_is_a_single_request(scenario):
    assert run_digest(scenario, 1) == run_digest(scenario, 1, single=True)


#: Every kind of fault note a FaultPlan alone makes the system write.
FAULT_KINDS = {
    "inject:fail", "inject:hang", "inject:delay",
    "retry", "exhausted", "fallback", "giveup",
}


@pytest.mark.parametrize("count", [1, 4])
def test_scenarios_exercise_their_recovery_paths(count):
    """The fault row must fall back, the crash rows must rescue (or,
    past the rescue deadline, fail), and the fault-mix row must note
    every fault kind."""
    _, hung = _run("standalone-drx-hang", count)
    assert all(r.fell_back for r in hung)
    _, crashed = _run("standalone-crash", count)
    assert any(r.rescued for r in crashed)
    assert not any(r.failed for r in crashed)
    _, both = _run("standalone-crash-faults", count)
    assert any(r.fell_back for r in both) and any(r.rescued for r in both)
    assert not any(r.failed for r in both)
    _, abandoned = _run("standalone-crash-rescue-deadline", count)
    assert any(r.failed for r in abandoned)
    assert not any(r.rescued for r in abandoned)
    mixed, _ = _run("standalone-fault-mix", count)
    kinds = {
        i.name for i in mixed.telemetry.instants if i.category == "fault"
    }
    assert kinds == FAULT_KINDS


#: Where each routing row sends the legs it steers off their home unit
#: (the motion spans' ``rerouted_to`` values).
ROUTES = {
    "standalone-s0-open": {"drx.s1"},
    "standalone-both-open": {"cpu"},
    "pcie-integrated-sw0-open": {"drx.sw1"},
    "bump-in-the-wire-open": {"cpu"},
    "standalone-crash-armed": {"drx.s1"},
    "standalone-planned-drx-open": {"dsa"},
}


@pytest.mark.parametrize("count", [1, 4])
@pytest.mark.parametrize("scenario", sorted(ROUTES))
def test_routing_rows_take_their_routes(scenario, count):
    system, records = _run(scenario, count)
    routed = [s for s in system.telemetry.spans if "rerouted_to" in s.attrs]
    assert routed
    assert {s.attrs["rerouted_to"] for s in routed} == ROUTES[scenario]
    assert any(r.rerouted for r in records)


@pytest.mark.parametrize("count", [1, 4])
@pytest.mark.parametrize("scenario", sorted(ENGINE_ROWS))
def test_engine_rows_run_every_leg_on_their_engine(scenario, count):
    system, records = _run(scenario, count)
    engine = ENGINE_ROWS[scenario]
    assert records and all(r.backend == [engine] * 2 for r in records)
    assert not any(r.rerouted or r.fell_back for r in records)
    device = system.planner.backends[engine].device
    assert device.jobs_completed == len(records) * 2
    spans = [s for s in system.telemetry.spans if s.category == engine]
    assert len(spans) == len(records) * 2 // count
    assert all(s.attrs.get("batch", 1) == count for s in spans)


@pytest.mark.parametrize("scenario", [
    "standalone-force-cpu", "standalone-planned-force-cpu",
])
def test_force_cpu_rows_mark_every_motion_leg(scenario):
    system, records = _run(scenario, 4)
    motions = [
        s for s in system.telemetry.spans if s.category == "stage"
    ]
    assert motions and all(s.attrs.get("forced_cpu") for s in motions)
    assert all(r.rerouted for r in records)


def test_serving_rows_reach_force_cpu_and_form_batches():
    for scenario in SERVE_SCENARIOS:
        system, result = serve_run(scenario)
        tiers = [
            i.attrs["to"] for i in system.telemetry.instants
            if i.name == "brownout_tier"
        ]
        assert "FORCE_CPU" in tiers
        batches = sum(t.batches for t in result.tenants.values())
        assert (batches > 0) == (scenario == "batched")


def test_ramp_tier_moves_come_from_the_controller():
    """Every tier move of ``ramp`` is the controller's, beside weight,
    scale-up and migration actions."""
    system, frontend, _ = controller_run("ramp")
    writers = {
        i.category for i in system.telemetry.instants
        if i.name in ("brownout_tier", "controller_tier")
    }
    assert writers == {"controller"}
    kinds = {kind for _, kind, _ in frontend.controller_actions}
    assert {"weight", "scale_up", "migration"} <= kinds


if __name__ == "__main__":  # pragma: no cover - golden capture
    print("GOLDEN = {")
    for name in sorted(SCENARIOS):
        for n in (1, 4):
            print(f"    ({name!r}, {n}):\n        {run_digest(name, n)!r},")
    print("}\nSERVE_GOLDEN = {")
    for name in sorted(SERVE_SCENARIOS):
        print(f"    {name!r}:\n        {serve_digest(name)!r},")
    print("}\nCONTROLLER_GOLDEN = {")
    for name in sorted(CONTROLLER_SCENARIOS):
        print(f"    {name!r}:\n        {controller_digest(name)!r},")
    print("}")
