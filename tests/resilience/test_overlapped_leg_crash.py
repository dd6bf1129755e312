"""A domain crash in the middle of an overlapped leg drains and rescues.

Two motion legs overlap their data movement with the restructuring
work as parallel child processes: the switch-integrated DRX
(``PCIE_INTEGRATED``, ingest streaming through the switch while the DRX
restructures) and the XDMA backend (the direct DMA crossing while the
transform unit runs). When the leg's failure domain dies mid-flight,
the rescue path abandons the leg's span subtree *before* the leg itself
unwinds; the children must then be cancelled (releasing the dead
device's slot at the crash instant) and their late span ends must be
no-ops, not a simulator abort.
"""

import pytest

from repro.accelerators.base import AcceleratorSpec
from repro.backends import PlannerConfig
from repro.core import (
    AppChain,
    DMXSystem,
    KernelStage,
    Mode,
    MotionStage,
    SystemConfig,
)
from repro.faults import CrashPlan, DomainCrash
from repro.profiles import WorkProfile
from repro.resilience.invariants import verify_artifact
from repro.telemetry import write_artifact

KB = 1024
SPEC = AcceleratorSpec(name="accel", domain="d", speedup_vs_cpu=6.0)


def _chain():
    # An affine, low-gather transform: expressible in an XDMA descriptor.
    profile = WorkProfile(
        name="motion", bytes_in=64 * KB, bytes_out=64 * KB,
        elements=16384, ops_per_element=4.0, gather_fraction=0.05,
    )
    return AppChain(
        name="app0",
        stages=[
            KernelStage("k1", SPEC, cpu_time_s=30e-6, accel_time_s=2e-6,
                        output_bytes=64 * KB),
            MotionStage("m", profile, input_bytes=64 * KB,
                        output_bytes=64 * KB, cpu_threads=3),
            KernelStage("k2", SPEC, cpu_time_s=24e-6, accel_time_s=2e-6,
                        output_bytes=4 * KB),
        ],
    )


#: target name -> (placement, planner, server the leg's work holds)
TARGETS = {
    "drx.sw0": (
        Mode.PCIE_INTEGRATED, None,
        lambda system: system.drx_devices["drx.sw0"]._server,
    ),
    "xdma": (
        Mode.BUMP_IN_WIRE, PlannerConfig(candidates=("xdma", "cpu")),
        lambda system: system.planner.backend("xdma").device._server,
    ),
}


def _system(target, crash_at=None):
    mode, planner, _ = TARGETS[target]
    domains = (
        CrashPlan(crashes=(DomainCrash(target=target, at_s=crash_at),))
        if crash_at is not None
        else None
    )
    return DMXSystem(
        [_chain()], SystemConfig(mode=mode), backends=planner,
        domains=domains,
    )


def _submit(system, count):
    records = []

    def client():
        records.extend((yield from system.submit_batch(0, count)))

    system.sim.spawn(client())
    return records


def _restructure_midpoint(target, count):
    system = _system(target)
    _submit(system, count)
    system.sim.run()
    (span,) = [s for s in system.telemetry.spans if s.name == "restructure"]
    assert span.attrs.get("overlapped") is True
    return (span.start + span.end) / 2


@pytest.mark.parametrize("count", [1, 4])
@pytest.mark.parametrize("target", sorted(TARGETS))
def test_mid_leg_crash_rescues_every_member(target, count, tmp_path):
    crash_at = _restructure_midpoint(target, count)
    system = _system(target, crash_at)
    records = _submit(system, count)
    system.sim.run(until=crash_at)
    # The drained leg's children were cancelled at the crash instant:
    # nothing still holds the dead device.
    assert TARGETS[target][2](system).in_use == 0
    system.sim.run()
    assert len(records) == count
    assert all(r.rescued for r in records)
    assert not any(r.failed for r in records)
    system.telemetry.finalize()
    path = write_artifact(str(tmp_path / "run.jsonl"), system.telemetry)
    report = verify_artifact(path)
    assert report.ok, report.problems
