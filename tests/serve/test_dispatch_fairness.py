"""Dispatch-fairness regressions the COALESCE tier was hiding.

The brownout ``COALESCE`` tier's tenant-affinity fast path used to pop
the last-served tenant's queue unconditionally: no run-length cap (one
backlogged tenant starved everyone, including higher-priority and
earlier-deadline work) and no WRR credit accounting (a brownout episode
corrupted fairness state that persisted after de-escalation). These
tests fail against that ``_next_item`` and pin the fixed behavior, plus
two admission-side audits from the same review: the EDF deadline offset
is resolved per arrival (not frozen at arrival-loop start), and
``ShedPolicy.QUEUE`` ignoring ``queue_capacity`` is deliberate.
"""

import pytest

from repro.accelerators.base import AcceleratorSpec
from repro.core import (
    AppChain,
    DMXSystem,
    KernelStage,
    Mode,
    MotionStage,
    SystemConfig,
)
from repro.profiles import WorkProfile
from repro.resilience import BrownoutConfig, BrownoutTier
from repro.serve import (
    Discipline,
    FrontendConfig,
    ServingFrontend,
    ShedPolicy,
    TenantSpec,
)
from repro.serve.arrivals import DeterministicArrivals
from repro.serve.frontend import _Admitted

KB = 1024
SPEC = AcceleratorSpec(name="accel", domain="d", speedup_vs_cpu=6.0)

#: A brownout config that never moves on its own: the dwell time exceeds
#: any run here, so forcing the tier by hand gives a stable COALESCE
#: episode to test dispatch under.
FROZEN_BROWNOUT = BrownoutConfig(
    window=16, min_samples=16, min_dwell_s=1e9, update_period_s=1.0
)


def make_chain(i=0, accel_time_s=2e-6, cpu_time_s=30e-6):
    profile = WorkProfile(
        name="motion", bytes_in=16 * KB, bytes_out=8 * KB,
        elements=16384, ops_per_element=20.0, gather_fraction=0.3,
    )
    return AppChain(
        name=f"app{i}",
        stages=[
            KernelStage("k1", SPEC, cpu_time_s=cpu_time_s,
                        accel_time_s=accel_time_s, output_bytes=16 * KB),
            MotionStage("m", profile, input_bytes=16 * KB,
                        output_bytes=8 * KB, cpu_threads=3),
            KernelStage("k2", SPEC, cpu_time_s=24e-6, accel_time_s=2e-6,
                        output_bytes=4 * KB),
        ],
    )


def coalescing_frontend(tenants, discipline, max_affinity_run=None):
    """A frontend pinned at the COALESCE tier (ladder frozen)."""
    system = DMXSystem(
        [make_chain(i) for i in range(len(tenants))],
        SystemConfig(mode=Mode.STANDALONE),
    )
    frontend = ServingFrontend(
        system,
        tenants,
        FrontendConfig(
            max_inflight=1, discipline=discipline, slo_s=1e-3,
            sample_period_s=None, brownout=FROZEN_BROWNOUT,
            max_affinity_run=max_affinity_run,
        ),
    )
    frontend._brownout.tier = BrownoutTier.COALESCE
    return frontend


def spec(name, **kwargs):
    kwargs.setdefault("arrivals", DeterministicArrivals(1.0))
    kwargs.setdefault("n_requests", 1)
    return TenantSpec(name=name, **kwargs)


def enqueue(frontend, tenant, n, start_seq=0):
    (tenant_spec,) = [t for t in frontend.tenants if t.name == tenant]
    for seq in range(start_seq, start_seq + n):
        frontend._queues[tenant].append(
            _Admitted(tenant_spec, frontend.sim.now, seq)
        )


def dispatch_sequence(frontend, n):
    """Drive ``_next_item`` with the dispatch loop's own bookkeeping."""
    out = []
    for _ in range(n):
        item = frontend._next_item()
        if item is None:
            break
        if item.spec.name == frontend._last_tenant:
            frontend._affinity_run += 1
        else:
            frontend._affinity_run = 1
        frontend._last_tenant = item.spec.name
        out.append(item.spec.name)
    return out


# -- the affinity run is capped ------------------------------------------------


def test_affinity_run_cannot_starve_higher_priority_work():
    # app0 (low priority) establishes affinity with a deep backlog; once
    # app1 (high priority) has work, the capped fast path must yield to
    # the discipline within max_affinity_run dispatches. The uncapped
    # path dispatched app0's entire backlog first.
    frontend = coalescing_frontend(
        [spec("app0", priority=1), spec("app1", priority=5)],
        Discipline.PRIORITY, max_affinity_run=2,
    )
    enqueue(frontend, "app0", 10)
    assert dispatch_sequence(frontend, 2) == ["app0", "app0"]
    enqueue(frontend, "app1", 2)
    assert dispatch_sequence(frontend, 1) == ["app1"], (
        "affinity run at its cap must fall through to strict priority"
    )


def test_affinity_cap_defaults_to_tenant_weight():
    # No explicit max_affinity_run: the cap falls back to the tenant's
    # WRR weight, so app0 (weight=3) gets a run of three before the
    # fast path yields to the higher-priority tenant.
    frontend = coalescing_frontend(
        [spec("app0", weight=3, priority=1), spec("app1", priority=5)],
        Discipline.PRIORITY,
    )
    enqueue(frontend, "app0", 10)
    assert dispatch_sequence(frontend, 1) == ["app0"]
    enqueue(frontend, "app1", 2)
    assert dispatch_sequence(frontend, 3) == ["app0", "app0", "app1"]


def test_starved_tenant_bounded_wait_end_to_end():
    # End to end under the pinned COALESCE tier: a flood tenant cannot
    # hold the single dispatch slot for its whole backlog once the
    # high-priority tenant's requests land.
    flood = spec(
        "app0", priority=1, n_requests=60,
        arrivals=DeterministicArrivals(1e6), queue_capacity=64,
    )
    paced = spec(
        "app1", priority=5, n_requests=5,
        arrivals=DeterministicArrivals(5e4), queue_capacity=64,
    )
    frontend = coalescing_frontend(
        [flood, paced], Discipline.PRIORITY, max_affinity_run=2
    )
    result = frontend.run()
    assert result.completed == 65
    # The uncapped path made app1 wait behind ~all 60 flood requests
    # (several ms); capped, it waits behind at most a few.
    assert result.tenants["app1"].queue_wait.max < 1e-3


# -- affinity dispatch is WRR-credit honest ------------------------------------


def test_wrr_shares_hold_under_coalesce():
    frontend = coalescing_frontend(
        [spec("app0", weight=2), spec("app1", weight=1)], Discipline.WRR
    )
    enqueue(frontend, "app0", 20)
    enqueue(frontend, "app1", 20)
    seq = dispatch_sequence(frontend, 9)
    # 2:1 weights must survive the affinity fast path: the uncapped,
    # credit-blind path gave app0 all nine.
    assert seq.count("app0") == 6
    assert seq.count("app1") == 3


def test_wrr_shares_recover_after_coalesce_episode():
    frontend = coalescing_frontend(
        [spec("app0", weight=2), spec("app1", weight=1)], Discipline.WRR
    )
    enqueue(frontend, "app0", 20)
    enqueue(frontend, "app1", 20)
    dispatch_sequence(frontend, 6)  # the COALESCE episode
    frontend._brownout.tier = BrownoutTier.NORMAL
    seq = dispatch_sequence(frontend, 6)
    # Credit state was debited honestly during the episode, so shares
    # after de-escalation are exactly the configured 2:1.
    assert seq.count("app0") == 4
    assert seq.count("app1") == 2


# -- admission-side audits -----------------------------------------------------


def test_deadline_offset_resolved_per_arrival():
    # An SLO change mid-run must reach subsequent arrivals' EDF
    # deadlines; the old arrival loop resolved the offset once at loop
    # start and froze it.
    system = DMXSystem(
        [make_chain(0, accel_time_s=20e-3, cpu_time_s=30e-3)],
        SystemConfig(mode=Mode.STANDALONE),
    )
    frontend = ServingFrontend(
        system,
        [spec("app0", n_requests=10,
              arrivals=DeterministicArrivals(1e4), queue_capacity=32)],
        FrontendConfig(
            max_inflight=1, discipline=Discipline.EDF, slo_s=1e-3,
            sample_period_s=None,
        ),
    )

    def retune_slo():
        yield system.sim.timeout(450e-6)
        object.__setattr__(frontend.config, "slo_s", 5e-3)

    captured = []

    def probe():
        yield system.sim.timeout(1.05e-3)
        captured.extend(
            (item.arrival, item.deadline)
            for item in frontend._queues["app0"]
        )

    system.sim.spawn(retune_slo())
    system.sim.spawn(probe())
    frontend.run()
    early = [(a, d) for a, d in captured if a <= 450e-6]
    late = [(a, d) for a, d in captured if a > 450e-6]
    assert early and late, "probe must straddle the SLO change"
    for arrival, deadline in early:
        assert deadline - arrival == pytest.approx(1e-3)
    for arrival, deadline in late:
        assert deadline - arrival == pytest.approx(5e-3)


def test_queue_policy_deliberately_ignores_capacity():
    # ShedPolicy.QUEUE admits unconditionally: queue_capacity=2 is not
    # enforced (documented design — latency absorbs overload, so knee
    # sweeps see the tail rather than a shed cliff).
    system = DMXSystem([make_chain(0)], SystemConfig(mode=Mode.STANDALONE))
    frontend = ServingFrontend(
        system,
        [spec("app0", n_requests=20,
              arrivals=DeterministicArrivals(1e6), queue_capacity=2)],
        FrontendConfig(
            max_inflight=1, shed=ShedPolicy.QUEUE,
            sample_period_s=20e-6,
        ),
    )
    result = frontend.run()
    assert result.shed == 0
    assert result.admitted == 20
    assert result.completed == 20
    assert result.max_queue_depth() > 2


# -- live WRR weights ----------------------------------------------------------


def wrr_frontend(tenants):
    """A plain WRR frontend (no brownout) for live-weight tests."""
    system = DMXSystem(
        [make_chain(i) for i in range(len(tenants))],
        SystemConfig(mode=Mode.STANDALONE),
    )
    return ServingFrontend(
        system,
        tenants,
        FrontendConfig(
            max_inflight=1, discipline=Discipline.WRR, slo_s=1e-3,
            sample_period_s=None,
        ),
    )


def test_mid_run_weight_change_takes_effect_at_cursor_advance():
    """Failing-first for the frozen-weight cursor: WRR credit used to
    refresh from the immutable ``TenantSpec.weight``, so a mid-run
    weight change never reached dispatch."""
    frontend = wrr_frontend([spec("app0"), spec("app1")])
    enqueue(frontend, "app0", 30)
    enqueue(frontend, "app1", 30)
    assert dispatch_sequence(frontend, 4) == [
        "app0", "app1", "app0", "app1",
    ]
    frontend.set_weight("app0", 3)
    seq = dispatch_sequence(frontend, 8)
    # Shares shift to 3:1 from the next cursor advance onto app0.
    assert seq.count("app0") == 6
    assert seq.count("app1") == 2


def test_weight_change_never_retroactively_grows_a_credit_run():
    frontend = wrr_frontend([spec("app0", weight=2), spec("app1")])
    enqueue(frontend, "app0", 30)
    enqueue(frontend, "app1", 30)
    assert dispatch_sequence(frontend, 1) == ["app0"]  # credit 2 -> 1
    frontend.set_weight("app0", 5)
    # The in-progress run still finishes at the *old* credit; the new
    # weight lands at the next cursor pass.
    assert dispatch_sequence(frontend, 2) == ["app0", "app1"]
    assert dispatch_sequence(frontend, 6) == ["app0"] * 5 + ["app1"]


def test_set_weight_validates():
    frontend = wrr_frontend([spec("app0"), spec("app1")])
    with pytest.raises(KeyError):
        frontend.set_weight("ghost", 2)
    with pytest.raises(ValueError):
        frontend.set_weight("app0", 0)
    # NaN used to pass ``weight < 1`` and starve the tenant.
    with pytest.raises(ValueError, match="weight.*NaN"):
        frontend.set_weight("app0", float("nan"))
    frontend.set_weight("app0", 4)
    assert frontend.weight("app0") == 4
