"""What one plan() costs: the planner's memoized bids against a
from-scratch oracle.

:class:`LegPlanner` keeps one :class:`LegSpec` per (source, count, home
DRX) in its :class:`PriceMemo`, with each backend's contention-free
price of it, and reads only live queue depths per plan. The oracle
below rebuilds the leg from the chain and the live placement and calls
the backend's full, uncached ``estimate()`` at every bid of every plan
of a STANDALONE batched run — counts 1 to 8, a ``migrate_app`` between
plans, brownout-constrained plans, and the leg shapes where DSA and
XDMA win. The two must agree exactly.
"""

from dataclasses import replace

import pytest

from repro.accelerators.base import AcceleratorSpec
from repro.backends import BACKEND_DSA, BACKEND_XDMA, PlannerConfig
from repro.backends.base import CPUBackend, LegSpec, PricedLeg
from repro.core import (
    AppChain,
    DMXSystem,
    KernelStage,
    Mode,
    MotionStage,
    SystemConfig,
)
from repro.core.system import SCRATCHPAD_FUSION
from repro.profiles import WorkProfile

KB = 1024
MB = 1024 * 1024
SPEC = AcceleratorSpec(name="accel", domain="d", speedup_vs_cpu=6.0)
APPS = 4  # two apps per standalone card: drx.s0 and drx.s1
COUNTS = range(1, 9)

#: (payload, motion profile, threads, backend that must win some plans).
SHAPES = {
    # The batched benchmark's 16 KB RPC leg.
    "rpc": (16 * KB, WorkProfile(
        name="motion", bytes_in=16 * KB, bytes_out=8 * KB, elements=16384,
        ops_per_element=20.0, gather_fraction=0.3,
    ), 3, None),
    # benchmarks/test_backend_planner.py: DSA wins small gathery legs...
    "dsa-small": (4 * KB, WorkProfile(
        name="gathery", bytes_in=8 * KB, bytes_out=4 * KB, elements=KB,
        ops_per_element=20.0, gather_fraction=0.3,
    ), 4, BACKEND_DSA),
    # ...and XDMA wins descriptor-expressible medium reshapes.
    "xdma-medium": (1 * MB, WorkProfile(
        name="affine", bytes_in=MB, bytes_out=MB, elements=MB // 4,
        ops_per_element=2.0, branch_fraction=0.02, gather_fraction=0.0,
    ), 4, BACKEND_XDMA),
}


def _chains(payload, profile, threads):
    return [
        AppChain(
            name=f"app{i}",
            stages=[
                KernelStage("k1", SPEC, cpu_time_s=30e-6, accel_time_s=2e-6,
                            output_bytes=payload),
                MotionStage("m", profile, input_bytes=payload,
                            output_bytes=profile.bytes_out,
                            cpu_threads=threads),
                KernelStage("k2", SPEC, cpu_time_s=24e-6, accel_time_s=2e-6,
                            output_bytes=4 * KB),
            ],
        )
        for i in range(APPS)
    ]


def _reference_leg(system, src, count):
    """The leg out of ``src`` for ``count`` members, rebuilt from the
    chain and the live placement."""
    where = {name: key for key, name in system._accel_names.items()}
    app_index, stage_index = where[src]
    stage = system.chains[app_index].stages[stage_index + 1]
    dst = system._accel_names[(app_index, stage_index + 2)]
    mode = system.config.mode
    drx, staging = system._drx_placement(mode, src, app_index)
    fused = stage.profile
    if SCRATCHPAD_FUSION:
        fused = replace(
            fused, bytes_in=stage.input_bytes, bytes_out=stage.output_bytes
        )
    return LegSpec(
        mode=mode, src=src, dst=dst, staging=staging, stage=stage,
        fused=fused, threads=stage.cpu_threads, count=count, drx=drx,
    )


def _run(shape):
    """Drive one STANDALONE batched run, checking every bid."""
    payload, profile, threads, _ = SHAPES[shape]
    system = DMXSystem(
        _chains(payload, profile, threads),
        SystemConfig(mode=Mode.STANDALONE), backends=PlannerConfig(),
    )
    sim = system.sim
    bids = []
    plans = []
    ceilings = []

    def checked_estimate(priced, backend):
        est = real_estimate(priced, backend)
        fresh = _reference_leg(system, priced.leg.src, priced.leg.count)
        bids.append((priced.leg == fresh, est, backend.estimate(fresh)))
        return est

    planner = system.planner
    real_plan = planner.plan

    def recorded_plan(priced, cpu_ceiling=False):
        decision = real_plan(priced, cpu_ceiling)
        leg = priced.leg
        plans.append((leg.src, leg.count, leg.drx.name, decision.kind))
        ceilings.append(cpu_ceiling)
        return decision

    def submit(app, count, delay, force_cpu):
        yield sim.timeout(delay)
        yield from system.submit_batch(app, count, force_cpu=force_cpu)

    def migrate(at):
        yield sim.timeout(at)
        system.migrate_app(0, "drx.s1")

    gap = 40e-6
    for count in COUNTS:
        for app in range(APPS):
            sim.spawn(submit(
                app, count, (count - 1) * gap + app * 3e-6,
                force_cpu=(app == 1 and count % 3 == 0),
            ))
    sim.spawn(migrate(4.5 * gap))

    real_estimate = PricedLeg.estimate
    PricedLeg.estimate = checked_estimate
    planner.plan = recorded_plan
    try:
        sim.run()
    finally:
        PricedLeg.estimate = real_estimate
    return {"bids": bids, "plans": plans, "ceilings": ceilings}


@pytest.fixture(scope="module", params=sorted(SHAPES))
def run(request):
    return request.param, _run(request.param)


def test_every_bid_equals_a_fresh_uncached_estimate(run):
    _, result = run
    assert len(result["bids"]) > 3 * len(result["plans"])
    for same_leg, bid, oracle in result["bids"]:
        assert same_leg
        assert bid == oracle
    # Live queueing fed some bids, so the queue term was checked too.
    assert any(bid.depth > 0 for _, bid, _ in result["bids"])


def test_run_covers_counts_migration_and_winning_backends(run):
    shape, result = run
    plans = result["plans"]
    assert len(plans) == len(COUNTS) * APPS  # one motion leg per batch
    assert {count for _, count, _, _ in plans} == set(COUNTS)
    assert set(result["ceilings"]) == {False, True}  # brownout plans too
    # app 0's leg was planned at its first home and, after migrate_app,
    # at the new one — the memo priced a second leg, not a stale one.
    homes = [home for src, _, home, _ in plans if src == "a0k0"]
    assert homes[0] == "drx.s0" and homes[-1] == "drx.s1"
    winner = SHAPES[shape][3]
    if winner is not None:
        assert winner in {kind for _, _, _, kind in plans}


@pytest.mark.parametrize("threads", [1, 3, 16])
def test_cpu_bid_prices_the_job_the_host_executes(threads):
    """At zero contention the CPU backend's per-job price is the
    restructuring time HostCPU.restructure takes with the stage's
    thread count (the pairing a zero-thread stage used to break)."""
    payload, profile, _, _ = SHAPES["rpc"]
    system = DMXSystem(
        _chains(payload, profile, threads),
        SystemConfig(mode=Mode.STANDALONE),
    )
    leg = _reference_leg(system, "a0k0", 1)
    bid = CPUBackend(system).unloaded(leg).per_job_s
    elapsed = []

    def job():
        elapsed.append((yield from system.cpu.restructure(
            leg.stage.profile, threads=leg.threads
        )))

    system.sim.spawn(job())
    system.sim.run()
    assert elapsed == [pytest.approx(bid, rel=1e-12)]
