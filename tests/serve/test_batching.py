"""Batch formation and coalesced execution: determinism, identity, faults.

The serving-side contract of ``repro.serve.batching``:

* the :class:`BatchFormer` seals on size or window, freezes a batch's
  terms at open time, and is driven purely by the DES clock (seeded runs
  replay byte-for-byte with batching armed);
* ``BatchingConfig(max_batch=1, window_s=0)`` degenerates to the exact
  per-request dispatch path (identical ``ServeResult``);
* formation delay never exceeds the window;
* a faulted batch retries / falls back *as a unit* — no member is lost;
* ``DMXSystem.submit_batch`` reconciles its phase books with the span
  tree in every placement mode, and ``count=1`` is bit-identical to
  ``submit``.
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
from repro.faults import FaultPlan, FaultPolicy
from repro.profiles import WorkProfile
from repro.serve import (
    BatchFormer,
    BatchingConfig,
    FrontendConfig,
    PoissonArrivals,
    ServingFrontend,
    TenantSpec,
)
from repro.serve.frontend import _Admitted
from repro.sim import Simulator
from repro.telemetry import phase_totals

KB = 1024
SPEC = AcceleratorSpec(name="accel", domain="d", speedup_vs_cpu=6.0)


def make_chain(i=0):
    """Small RPC-style chain (fast to simulate, control-path heavy)."""
    profile = WorkProfile(
        name="motion", bytes_in=16 * KB, bytes_out=8 * KB,
        elements=16384, ops_per_element=20.0, gather_fraction=0.3,
    )
    return AppChain(
        name=f"app{i}",
        stages=[
            KernelStage("k1", SPEC, cpu_time_s=30e-6, accel_time_s=2e-6,
                        output_bytes=16 * KB),
            MotionStage("m", profile, input_bytes=16 * KB,
                        output_bytes=8 * KB, cpu_threads=3),
            KernelStage("k2", SPEC, cpu_time_s=24e-6, accel_time_s=2e-6,
                        output_bytes=4 * KB),
        ],
    )


def build_system(mode=Mode.STANDALONE, n_apps=2, faults=None):
    return DMXSystem(
        [make_chain(i) for i in range(n_apps)],
        SystemConfig(mode=mode),
        faults=faults,
    )


def serve(batching, rate_rps=200e3, n_requests=40, seed=0, faults=None,
          slo_s=1e-3, max_inflight=8):
    system = build_system(faults=faults)
    tenants = [
        TenantSpec(
            name=f"app{i}",
            arrivals=PoissonArrivals(rate_rps / 2),
            n_requests=n_requests,
        )
        for i in range(2)
    ]
    frontend = ServingFrontend(
        system,
        tenants,
        FrontendConfig(
            max_inflight=max_inflight, slo_s=slo_s,
            sample_period_s=None, batching=batching,
        ),
        seed=seed,
    )
    return frontend.run()


# -- BatchFormer ---------------------------------------------------------------


class FormerHarness:
    def __init__(self):
        self.sim = Simulator()
        self.launched = []
        self.former = BatchFormer(self.sim, self.launched.append)

    def admitted(self, seq, tenant="app0"):
        spec = TenantSpec(
            name=tenant, arrivals=PoissonArrivals(1.0), n_requests=1
        )
        return _Admitted(spec, self.sim.now, seq)


def test_former_seals_on_size():
    h = FormerHarness()
    for seq in range(3):
        h.former.add(h.admitted(seq), max_batch=3, window_s=1.0)
    assert len(h.launched) == 1
    batch = h.launched[0]
    assert batch.sealed_by == "size"
    assert [m.seq for m in batch.members] == [0, 1, 2]
    assert not h.former.is_forming("app0")


def test_former_seals_on_window():
    h = FormerHarness()
    h.former.add(h.admitted(0), max_batch=8, window_s=5e-3)
    assert h.former.is_forming("app0")
    assert not h.launched
    h.sim.run()
    assert h.sim.now == pytest.approx(5e-3)
    assert [batch.sealed_by for batch in h.launched] == ["window"]
    assert not h.former.is_forming("app0")


def test_former_terms_frozen_at_open():
    # Terms passed while *joining* are ignored: the batch opened with
    # max_batch=2 seals at two members even though the second add asks
    # for a bigger cap.
    h = FormerHarness()
    h.former.add(h.admitted(0), max_batch=2, window_s=1.0)
    h.former.add(h.admitted(1), max_batch=100, window_s=9.0)
    assert len(h.launched) == 1
    assert h.launched[0].max_batch == 2


def test_former_tracks_tenants_independently():
    h = FormerHarness()
    h.former.add(h.admitted(0, "app0"), max_batch=2, window_s=1.0)
    h.former.add(h.admitted(0, "app1"), max_batch=2, window_s=1.0)
    assert h.former.is_forming("app0") and h.former.is_forming("app1")
    assert not h.launched
    h.former.add(h.admitted(1, "app0"), max_batch=2, window_s=1.0)
    assert len(h.launched) == 1
    assert h.launched[0].tenant == "app0"
    assert h.former.is_forming("app1")


def test_former_rejects_bad_terms():
    h = FormerHarness()
    with pytest.raises(ValueError):
        h.former.add(h.admitted(0), max_batch=0, window_s=1.0)
    with pytest.raises(ValueError):
        BatchingConfig(max_batch=0)
    with pytest.raises(ValueError):
        BatchingConfig(window_s=-1.0)
    with pytest.raises(ValueError):
        BatchingConfig(coalesce_window_factor=0.5)


# -- determinism and identity --------------------------------------------------


BATCHING = BatchingConfig(max_batch=4, window_s=100e-6)


def test_batched_serving_is_deterministic():
    first = serve(BATCHING, seed=3)
    second = serve(BATCHING, seed=3)
    assert first.to_dict() == second.to_dict()
    assert [r.latency for r in first.records] == [
        r.latency for r in second.records
    ]
    assert sum(t.batches for t in first.tenants.values()) > 0


def test_degenerate_batching_matches_per_request_path():
    """max_batch=1 + zero window = the exact unbatched dispatch path."""
    off = serve(None, seed=5).to_dict()
    on = serve(BatchingConfig(max_batch=1, window_s=0.0), seed=5).to_dict()
    for report in (off, on):
        for tenant in report["tenants"].values():
            tenant.pop("batches")
    assert on == off


def test_formation_delay_bounded_by_window():
    result = serve(BATCHING, seed=1)
    gauge = result.telemetry.metrics.gauge("batch_formation_delay_s")
    assert gauge.samples
    assert gauge.max() <= BATCHING.window_s + 1e-12
    # Every admitted request completed through some batch.
    sizes = result.telemetry.metrics.histogram("batch_size")
    assert sizes.count == sum(t.batches for t in result.tenants.values())
    assert sizes.sum == result.completed


# -- fault composition ---------------------------------------------------------


def test_faulted_batches_fall_back_without_losing_members():
    plan = FaultPlan(
        seed=3,
        drx=FaultPolicy(fail_p=0.4, hang_p=0.2),
        drx_deadline_s=200e-6,
    )
    result = serve(BATCHING, seed=2, faults=plan, slo_s=10e-3)
    # Every admitted member completes (fallback answers it, never drops
    # it), and whole batches degrade together.
    assert result.completed == result.admitted == 80
    assert result.failed == 0
    assert len(result.records) == 80
    fallbacks = sum(1 for r in result.records if r.fell_back)
    assert fallbacks > 0
    assert sum(t.batches for t in result.tenants.values()) > 0


def test_faulted_batched_serving_replays_exactly():
    plan = FaultPlan(seed=9, drx=FaultPolicy(fail_p=0.3),
                     drx_deadline_s=200e-6)
    first = serve(BATCHING, seed=4, faults=plan, slo_s=10e-3)
    second = serve(BATCHING, seed=4, faults=plan, slo_s=10e-3)
    assert first.to_dict() == second.to_dict()


# -- submit_batch: the system-level contract -----------------------------------


def run_batch(mode, count):
    system = build_system(mode=mode)
    records = []

    def client():
        records.extend((yield from system.submit_batch(0, count)))

    system.sim.spawn(client())
    system.sim.run()
    return system, records


@pytest.mark.parametrize("mode", list(Mode))
def test_submit_batch_reconciles_phase_books_in_every_mode(mode):
    system, records = run_batch(mode, 3)
    assert len(records) == 3
    assert all(not r.failed for r in records)
    want = {}
    for record in records:
        for phase, seconds in record.phases.items():
            want[phase] = want.get(phase, 0.0) + seconds
    got = phase_totals(system.telemetry.spans)
    for phase, seconds in want.items():
        if seconds:
            assert got.get(phase, 0.0) == pytest.approx(
                seconds, abs=1e-9
            ), f"{mode.value}:{phase}"


@pytest.mark.parametrize("mode", [Mode.STANDALONE, Mode.MULTI_AXL,
                                  Mode.PCIE_INTEGRATED])
def test_submit_batch_of_one_is_identical_to_submit(mode):
    _, batch_records = run_batch(mode, 1)
    system = build_system(mode=mode)
    solo = []

    def client():
        solo.append((yield from system.submit(0)))

    system.sim.spawn(client())
    system.sim.run()
    assert batch_records[0].latency == solo[0].latency
    assert batch_records[0].phases == solo[0].phases


def test_submit_batch_validates_count():
    system = build_system()
    with pytest.raises(ValueError):
        system.sim.spawn(system.submit_batch(0, 0))
        system.sim.run()


# -- size-aware formation windows ----------------------------------------------


def test_size_aware_window_config_validates():
    with pytest.raises(ValueError):
        BatchingConfig(size_aware=True, rate_window=1)
    cfg = BatchingConfig(size_aware=True)
    assert cfg.rate_window >= 2


def test_low_rate_tenants_stop_paying_the_full_window():
    """A tenant arriving slower than the window can fill stops idling
    out ``window_s`` on every singleton batch — the size-aware former
    seals as soon as the rate estimate says nobody else is coming."""
    window = BatchingConfig(max_batch=8, window_s=2e-3)
    aware = BatchingConfig(max_batch=8, window_s=2e-3, size_aware=True)
    # 100 rps per tenant: interarrivals ~10 ms >> the 2 ms window, so a
    # fixed window is pure added latency on every request.
    fixed = serve(window, rate_rps=200.0, n_requests=25, slo_s=None)
    sized = serve(aware, rate_rps=200.0, n_requests=25, slo_s=None)
    assert fixed.completed == sized.completed == 50
    assert sized.latency.mean() < fixed.latency.mean() / 2
    # The fixed run pays ~window_s of formation delay per request; the
    # size-aware run pays (almost) none once the estimator warms up.
    assert fixed.latency.mean() > window.window_s / 2
    assert sized.latency.mean() < window.window_s / 4


def test_size_aware_batching_is_deterministic():
    aware = BatchingConfig(max_batch=4, window_s=100e-6, size_aware=True)
    first = serve(aware, seed=7)
    second = serve(aware, seed=7)
    assert first.to_dict() == second.to_dict()


def test_size_aware_off_is_the_exact_fixed_window_path():
    """size_aware defaults off; the flag set to False changes nothing."""
    off = serve(BATCHING, seed=3).to_dict()
    explicit = serve(
        BatchingConfig(max_batch=4, window_s=100e-6, size_aware=False),
        seed=3,
    ).to_dict()
    assert off == explicit


def test_size_aware_high_rate_batches_still_fill():
    """At rates where batches size-out, shrinking the window must not
    break batching itself — batches still coalesce members."""
    aware = BatchingConfig(max_batch=4, window_s=100e-6, size_aware=True)
    result = serve(aware, rate_rps=200e3)
    sizes = result.telemetry.metrics.histogram("batch_size")
    assert sizes.sum == result.completed == 80
    assert sizes.count < sizes.sum  # some batches held > 1 member


# -- rescue under batching -----------------------------------------------------


def make_crash_serve(crashes, batching, requests=12, rate_rps=40e3, seed=0,
                     **overrides):
    from repro.resilience.recovery import RecoveryScenarioConfig, \
        run_recovery_scenario

    def factory():
        return [make_chain(i) for i in range(4)]

    config = RecoveryScenarioConfig(
        offered_rps=rate_rps,
        crashes=crashes,
        n_tenants=4,
        requests_per_tenant=requests,
        chain_factory=factory,
        batching=batching,
        slo_s=5e-3,
        seed=seed,
        **overrides,
    )
    return run_recovery_scenario(config)


def test_batch_members_rescued_exactly_once(tmp_path):
    """A coalesced batch whose domain dies mid-flight rescues *all*
    members exactly once: none lost, none double-counted, and the
    artifact's phase books reconcile (the invariant checker runs on it)."""
    from repro.faults import DomainCrash

    crashes = (DomainCrash(target="drx.s0", at_s=300e-6),)
    result = make_crash_serve(
        crashes, BatchingConfig(max_batch=4, window_s=100e-6),
        artifact_path=str(tmp_path / "batched-crash.jsonl"),
    )
    rescued = [r for r in result.records if r.rescued]
    assert rescued, "the kill must catch a batch in flight"
    # Whole batches drain and rescue together: every drained member is
    # rescued (exactly once), and completes.
    assert len(rescued) == result.domains["rescued"]
    assert result.domains["drained"] == result.domains["rescued"]
    assert all(not r.failed for r in result.records)
    assert len(result.records) == 48  # conservation: all admitted answered
    # At least one rescue covered a multi-member batch.
    sizes = result.serve.telemetry.metrics.histogram("batch_size")
    assert sizes.sum == result.serve.completed


def test_batched_rescue_replays_exactly():
    from repro.faults import DomainCrash

    crashes = (DomainCrash(target="drx.s0", at_s=300e-6),)
    batching = BatchingConfig(max_batch=4, window_s=100e-6)
    first = make_crash_serve(crashes, batching)
    second = make_crash_serve(crashes, batching)
    assert first.serve.to_dict() == second.serve.to_dict()
    assert first.domains == second.domains
