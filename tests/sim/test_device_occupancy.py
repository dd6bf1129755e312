"""The contract every device occupancy keeps.

A DRX unit, a DSA engine pool and an XDMA channel pool each hold one
slot for a service time computed on entry, record one span per job
under the caller's context, and count a job only once it completes:

* a completed job's span carries ``service_s``, ``queued_s`` (the wait
  behind busy slots) and ``batch`` only for a coalesced job;
* ``jobs_completed`` grows by the job's member count and
  ``busy_seconds`` by its service time;
* a job interrupted while queued, or while in service, closes its span
  ``abandoned`` with ``error="Interrupt"`` and counts nothing.
"""

import pytest

from repro.backends.dsa import DSAConfig, DSADevice
from repro.backends.xdma import XDMAConfig, XDMADevice
from repro.drx.microarch import DRXDevice
from repro.profiles import WorkProfile
from repro.sim import Simulator
from repro.telemetry import Telemetry

KB = 1024
PROFILE = WorkProfile(
    name="restructure", bytes_in=64 * KB, bytes_out=32 * KB,
    elements=16384, ops_per_element=4.0,
)
NBYTES = 64 * KB


def _drx(sim):
    device = DRXDevice(sim, name="drx.t")
    timing = device.timing

    def service(count):
        if count == 1:
            return timing.time_for_profile(PROFILE)
        return timing.time_for_profile_batch([PROFILE] * count)

    def job(ctx, count):
        return device.restructure(PROFILE, ctx=ctx, count=count)

    return device, 1, job, service


def _dsa(sim):
    config = DSAConfig()
    device = DSADevice(sim, config, name="dsa")

    def job(ctx, count):
        return device.process(PROFILE, count=count, ctx=ctx)

    return (
        device, config.engines, job,
        lambda count: count * config.job_time(PROFILE),
    )


def _xdma(sim):
    config = XDMAConfig()
    device = XDMADevice(sim, config, name="xdma")

    def job(ctx, count):
        return device.transform(count * NBYTES, count=count, ctx=ctx)

    return (
        device, config.channels, job,
        lambda count: config.transform_time(count * NBYTES),
    )


#: span category -> maker of (device, slots, job, service) for a sim.
DEVICES = {"drx": _drx, "dsa": _dsa, "xdma": _xdma}


def _setup(kind):
    sim = Simulator()
    telemetry = Telemetry(sim)
    device, slots, job, service = DEVICES[kind](sim)
    return sim, telemetry, telemetry.context(), device, slots, job, service


def _job_span(telemetry, begun_before):
    """The span begun after ``begun_before`` others (all are closed)."""
    return sorted(telemetry.spans, key=lambda span: span.span_id)[
        begun_before
    ]


@pytest.mark.parametrize("count", [1, 4])
@pytest.mark.parametrize("kind", sorted(DEVICES))
def test_a_completed_job_books_its_span_and_counters(kind, count):
    sim, telemetry, ctx, device, slots, job, service = _setup(kind)
    for _ in range(slots):  # every slot busy with a single job
        sim.spawn(job(ctx, 1))
    proc = sim.spawn(job(ctx, count))
    sim.run()

    span = _job_span(telemetry, slots)
    assert (span.name, span.category, span.actor) == (
        device.name, kind, device.name
    )
    assert span.end == sim.now
    assert span.attrs["service_s"] == service(count)
    assert span.attrs["queued_s"] == pytest.approx(service(1))
    assert span.attrs["queued_s"] > 0  # waited behind a busy slot
    assert span.attrs.get("batch") == (count if count > 1 else None)
    assert "abandoned" not in span.attrs
    if kind == "xdma":
        assert span.attrs["bytes"] == count * NBYTES
    assert proc.value == pytest.approx(service(1) + service(count))
    assert device.jobs_completed == slots + count
    assert device.busy_seconds == pytest.approx(
        slots * service(1) + service(count)
    )


@pytest.mark.parametrize("count", [1, 4])
@pytest.mark.parametrize("where", ["queued", "in-service"])
@pytest.mark.parametrize("kind", sorted(DEVICES))
def test_an_interrupted_job_counts_nothing(kind, where, count):
    sim, telemetry, ctx, device, slots, job, service = _setup(kind)
    blockers = slots if where == "queued" else 0
    for _ in range(blockers):
        sim.spawn(job(ctx, 1))
    victim = sim.spawn(job(ctx, count))
    # Halfway through the blockers' service (the victim still queued),
    # or halfway through the victim's own.
    at = service(1 if blockers else count) / 2

    def stopper():
        yield sim.timeout(at)
        victim.interrupt("cancelled")

    sim.spawn(stopper())
    sim.run()

    span = _job_span(telemetry, blockers)
    assert span.end == at
    assert span.attrs["abandoned"] is True
    assert span.attrs["error"] == "Interrupt"
    assert "queued_s" not in span.attrs
    assert device.jobs_completed == blockers
    assert device.busy_seconds == pytest.approx(blockers * service(1))
    assert telemetry.tracker.open_count == 0
