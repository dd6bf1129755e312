"""The span every timed operation records, clean and interrupted.

Each site below opens one span around one modeled operation: a DMA, a
completion notification, a DRX, DSA or XDMA job, a host staging pass,
the switch-integrated ingest child, a motion stage and a phase step. A
clean run closes that span with the site's begin attributes (and, for a
device job, ``queued_s``); an interrupt delivered halfway through the
span closes it at that instant ``abandoned``, with ``error`` only at
the DMA, notify and device-job sites, and leaves no span open.
Counters move only when the operation completes. The artifact goldens
hold these bytes across whole runs; this file holds them per site.
"""

import pytest

from repro.backends.base import leg_transfer
from repro.backends.dsa import DSAConfig, DSADevice
from repro.backends.xdma import XDMAConfig, XDMADevice
from repro.core import DMXSystem, Mode, SystemConfig
from repro.core.system import ALL_PHASES, PHASE_MOVEMENT, _RequestState
from repro.cpu import HostCPU
from repro.drx.microarch import DRXDevice
from repro.interconnect import DMAEngine, Fabric
from repro.profiles import WorkProfile
from repro.runtime.driver import NotificationModel
from repro.sim import PhaseAccumulator, Simulator
from repro.telemetry import Telemetry
from repro.workloads import build_benchmark_chains

KB = 1024
MB = 1024 * KB
PROFILE = WorkProfile(
    name="restructure", bytes_in=64 * KB, bytes_out=32 * KB,
    elements=16384, ops_per_element=4.0,
)


def _fabric_world():
    sim = Simulator()
    fabric = Fabric(sim)
    switch = fabric.add_switch("sw0")
    fabric.add_endpoint("a", switch)
    fabric.add_endpoint("b", switch)
    telemetry = Telemetry(sim)
    return sim, fabric, telemetry, telemetry.context(request_id=3)


def _system_world(mode):
    system = DMXSystem(
        build_benchmark_chains("sound-detection", 1), SystemConfig(mode=mode)
    )
    return system, system.telemetry.context(request_id=0)


def _dma(count):
    sim, fabric, telemetry, ctx = _fabric_world()
    engine = DMAEngine(sim, fabric)
    op = engine.transfer("a", "b", count * MB, ctx=ctx, descriptors=count)
    return sim, telemetry, op, lambda: engine.transfers_completed


def _notify(count):
    sim = Simulator()
    telemetry = Telemetry(sim)
    model = NotificationModel(sim, HostCPU(sim))
    op = model.notify("accel0", ctx=telemetry.context(), count=count)
    return sim, telemetry, op, None


def _device(make, job):
    def site(count):
        sim = Simulator()
        telemetry = Telemetry(sim)
        device = make(sim)
        op = job(device, telemetry.context(), count)
        return sim, telemetry, op, lambda: device.jobs_completed
    return site


def _host_staging(count):
    system, ctx = _system_world(Mode.MULTI_AXL)
    op = leg_transfer(
        system, system.accel_name(0, 0), "root", MB, count,
        _RequestState(0), ctx,
    )
    return system.sim, system.telemetry, op, None


def _ingest(count):
    sim, fabric, telemetry, ctx = _fabric_world()
    op = telemetry.wrap(
        fabric.transfer("a", "b", count * MB), "ingest", "ingest",
        actor="sw0", parent=ctx.parent_id, request_id=ctx.request_id,
        bytes=count * MB,
    )
    return sim, telemetry, op, lambda: fabric.total_bytes_moved()


def _motion(count):
    system, ctx = _system_world(Mode.BUMP_IN_WIRE)
    stage = system.chains[0].stages[1]
    phases = PhaseAccumulator(ALL_PHASES)
    op = system._motion(0, 0, stage, count, phases, _RequestState(0), ctx)
    return system.sim, system.telemetry, op, None


def _phase(count):
    system, ctx = _system_world(Mode.MULTI_AXL)
    phases = PhaseAccumulator(ALL_PHASES)

    def op():
        with system._phase(
            phases, ctx, "movement-in", PHASE_MOVEMENT, count=count
        ) as cctx:
            yield from system.dma.transfer(
                system.accel_name(0, 0), "root", MB, ctx=cctx
            )

    return (
        system.sim, system.telemetry, op(),
        lambda: sum(phases.totals.values()),
    )


def _drx_service(count):
    timing = DRXDevice(Simulator(), name="drx.t").timing
    if count == 1:
        return timing.time_for_profile(PROFILE)
    return timing.time_for_profile_batch([PROFILE] * count)


def _batch(count):
    return {"batch": count} if count > 1 else {}


#: site -> (maker of (sim, telemetry, op, counters) for a member count,
#: where ``counters()`` reads what the operation books on completion,
#: the span's (name, category, actor), its begin attributes for a
#: count, whether an interrupt records ``error``).
SITES = {
    "dma": (
        _dma, ("a->b", "dma", "dma"),
        lambda n: {"bytes": n * MB, **({"descriptors": n} if n > 1 else {})},
        True,
    ),
    "notify": (
        _notify, ("notify", "notify", "accel0"),
        lambda n: {
            "mode": "interrupt", "cost_s": 2.0e-6 + (n - 1) * 0.4e-6,
            **_batch(n),
        },
        True,
    ),
    "drx": (
        _device(
            lambda sim: DRXDevice(sim, name="drx.t"),
            lambda device, ctx, n: device.restructure(
                PROFILE, ctx=ctx, count=n
            ),
        ),
        ("drx.t", "drx", "drx.t"),
        lambda n: {"service_s": _drx_service(n), **_batch(n)},
        True,
    ),
    "dsa": (
        _device(
            lambda sim: DSADevice(sim, DSAConfig(), name="dsa"),
            lambda device, ctx, n: device.process(PROFILE, count=n, ctx=ctx),
        ),
        ("dsa", "dsa", "dsa"),
        lambda n: {
            "service_s": n * DSAConfig().job_time(PROFILE), **_batch(n)
        },
        True,
    ),
    "xdma": (
        _device(
            lambda sim: XDMADevice(sim, XDMAConfig(), name="xdma"),
            lambda device, ctx, n: device.transform(
                n * 64 * KB, count=n, ctx=ctx
            ),
        ),
        ("xdma", "xdma", "xdma"),
        lambda n: {
            "service_s": XDMAConfig().transform_time(n * 64 * KB),
            "bytes": n * 64 * KB, **_batch(n),
        },
        True,
    ),
    "host-staging": (
        _host_staging, ("host-staging", "staging", "root"),
        lambda n: {"bytes": n * MB},
        False,
    ),
    "ingest": (
        _ingest, ("ingest", "ingest", "sw0"),
        lambda n: {"bytes": n * MB},
        False,
    ),
    "motion": (
        _motion, ("motion0", "stage", ""),
        lambda n: {"src": "a0k0", "dst": "a0k1", **_batch(n)},
        False,
    ),
    "phase": (
        _phase, ("movement-in", "movement", ""),
        _batch,
        False,
    ),
}

#: The attributes a device job adds when it completes.
END_ATTRS = {"drx", "dsa", "xdma"}


def _site_span(telemetry, name, category):
    (span,) = [
        span for span in telemetry.spans
        if (span.name, span.category) == (name, category)
    ]
    return span


def _run(site, count, interrupt_at=None):
    make = SITES[site][0]
    sim, telemetry, op, counters = make(count)
    proc = sim.spawn(op)
    if interrupt_at is not None:
        def stopper():
            yield sim.timeout(interrupt_at)
            proc.interrupt("cancelled")

        sim.spawn(stopper())
    sim.run()
    assert telemetry.tracker.open_count == 0
    return telemetry, counters() if counters is not None else None


@pytest.mark.parametrize("count", [1, 4])
@pytest.mark.parametrize("site", sorted(SITES))
def test_a_clean_operation_closes_its_span_with_todays_attributes(
    site, count
):
    _, (name, category, actor), begin_attrs, _ = SITES[site]
    telemetry, counters = _run(site, count)
    span = _site_span(telemetry, name, category)
    assert span.actor == actor
    assert span.end > span.start
    expected = begin_attrs(count)
    if site in END_ATTRS:
        expected["queued_s"] = 0.0
    assert list(span.attrs.items()) == list(expected.items())
    if site == "phase":
        assert counters == span.end - span.start  # booked to the bit
    elif counters is not None:
        assert counters > 0


@pytest.mark.parametrize("count", [1, 4])
@pytest.mark.parametrize("site", sorted(SITES))
def test_an_interrupted_operation_closes_its_span_abandoned(site, count):
    _, (name, category, _), begin_attrs, errors = SITES[site]
    clean, _ = _run(site, count)
    clean_span = _site_span(clean, name, category)
    at = (clean_span.start + clean_span.end) / 2

    telemetry, counters = _run(site, count, interrupt_at=at)
    span = _site_span(telemetry, name, category)
    assert span.end == at
    expected = {**begin_attrs(count), "abandoned": True}
    if errors:
        expected["error"] = "Interrupt"
    assert list(span.attrs.items()) == list(expected.items())
    if counters is not None:
        assert counters == 0  # counters move only on completion
