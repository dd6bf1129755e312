"""Drawn cross-plane runs: faults, crashes and breakers armed together.

Each recovery plane has its own goldens, mostly armed alone. This test
draws them together: a placement mode, an optional
:class:`~repro.faults.FaultPlan` (DRX, DMA and notify faults under a DRX
deadline), an optional :class:`~repro.faults.CrashPlan` (one or two of
the mode's DRX units dying, maybe reviving, with either detection
threshold and rescue deadline), an optional
:class:`~repro.resilience.ResilienceConfig`, a batch count and the
number of apps. Every app submits two batches back to back on the
request-path goldens' 16 KB chain. Whatever the draw, a leg that fails
either finishes on the host or fails its request, and three things hold:

* the same draw gives the same artifact lines and request records;
* the span-derived phase totals equal the records' phase sums to 1e-9;
* ``finalize()`` finds no span left open.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DMXSystem, Mode, SystemConfig
from repro.faults import CrashPlan, DomainCrash, FaultPlan, FaultPolicy
from repro.resilience import BreakerConfig, ResilienceConfig
from repro.telemetry import artifact_lines, phase_totals

from ..core.test_request_path_golden import _chain

MODES = (Mode.STANDALONE, Mode.PCIE_INTEGRATED, Mode.BUMP_IN_WIRE)

POLICIES = st.sampled_from((
    FaultPolicy(),
    FaultPolicy(fail_p=0.2),
    FaultPolicy(hang_p=0.2),
    FaultPolicy(delay_p=0.3),
    FaultPolicy(fail_p=0.1, hang_p=0.1, delay_p=0.1),
))

FAULT_PLANS = st.none() | st.builds(
    FaultPlan,
    seed=st.integers(0, 7),
    drx=POLICIES,
    dma=POLICIES,
    notify=POLICIES,
    drx_deadline_s=st.sampled_from((2e-3, 5e-3, 100e-3)),
)

RESILIENCE = st.none() | st.builds(
    ResilienceConfig,
    seed=st.integers(0, 3),
    breaker=st.sampled_from((
        BreakerConfig(),
        BreakerConfig(cooldown_s=50e-6, cooldown_cap_s=200e-6),
    )),
)


@st.composite
def draws(draw):
    """One drawn run: (mode, apps, count, faults, domains, resilience)."""
    mode = draw(st.sampled_from(MODES))
    apps = draw(st.sampled_from((2, 4)))
    count = draw(st.sampled_from((1, 4)))
    domains = None
    if draw(st.booleans()):
        units = sorted(
            DMXSystem(
                [_chain(i) for i in range(apps)], SystemConfig(mode=mode)
            ).drx_devices
        )
        targets = draw(st.permutations(units))[
            :draw(st.integers(1, min(2, len(units))))
        ]
        crashes = []
        for target in targets:
            at_s = draw(st.integers(0, 300)) * 1e-6
            revive = draw(st.sampled_from((None, 100e-6, 2e-3)))
            crashes.append(DomainCrash(
                target, at_s, None if revive is None else at_s + revive,
            ))
        domains = CrashPlan(
            crashes=tuple(crashes),
            detect_after_failures=draw(st.sampled_from((1, 3))),
            rescue_deadline_s=draw(st.sampled_from((None, 0.0, 5e-3))),
        )
    return (
        mode, apps, count, draw(FAULT_PLANS), domains, draw(RESILIENCE),
    )


def _run(mode, apps, count, faults, domains, resilience):
    """Every app submits two batches of ``count``; returns the drained
    system, its records and the number of spans ``finalize`` closed."""
    system = DMXSystem(
        [_chain(i) for i in range(apps)], SystemConfig(mode=mode),
        faults=faults, resilience=resilience, domains=domains,
    )
    records = []

    def client(app):
        for _ in range(2):
            records.extend((yield from system.submit_batch(app, count)))

    for app in range(apps):
        system.sim.spawn(client(app))
    system.sim.run()
    return system, records, system.telemetry.finalize()


@settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(draws())
def test_armed_planes_replay_reconcile_and_close(draw):
    system, records, truncated = _run(*draw)
    assert truncated == 0
    assert len(records) == 2 * draw[1] * draw[2]

    want = {}
    for record in records:
        for phase, seconds in record.phases.items():
            want[phase] = want.get(phase, 0.0) + seconds
    got = phase_totals(system.telemetry.spans)
    for phase in set(want) | set(got):
        assert got.get(phase, 0.0) == pytest.approx(
            want.get(phase, 0.0), abs=1e-9
        ), phase

    again, again_records, _ = _run(*draw)
    assert list(artifact_lines(again.telemetry)) == list(
        artifact_lines(system.telemetry)
    )
    assert [dataclasses.asdict(r) for r in again_records] == [
        dataclasses.asdict(r) for r in records
    ]
