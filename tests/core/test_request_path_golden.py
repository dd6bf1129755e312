"""Byte goldens for the request path, single and coalesced.

Each scenario below drives :meth:`DMXSystem.submit_batch` on a small
two-app system and hashes everything a run leaves behind: the full
telemetry artifact (every span with its attributes and times, every
instant, counter and gauge) plus the serialized request records. The
SHA-256s were captured on the tree where singles and batches still ran
through two separate copies of the motion code; the one ``count``-
parametrized path must reproduce every hash byte for byte. If a change
legitimately alters request-path output, recapture the table with
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
from repro.core import (
    AppChain,
    DMXSystem,
    KernelStage,
    Mode,
    MotionStage,
    SystemConfig,
)
from repro.faults import CrashPlan, DomainCrash, FaultPlan, FaultPolicy
from repro.profiles import WorkProfile
from repro.telemetry import artifact_lines

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


#: drx.s0 dies while a leg is restructuring on it (at count 1 and 4).
_CRASH = CrashPlan(crashes=(DomainCrash(target="drx.s0", at_s=40e-6),))

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
    "standalone-crash": dict(mode=Mode.STANDALONE, domains=_CRASH),
}


def _run(scenario, count, single=False):
    """Two apps each submit two back-to-back requests of ``count``
    members (``single=True`` issues them through
    :meth:`DMXSystem.submit`); returns the drained system and records."""
    kwargs = dict(SCENARIOS[scenario])
    system = DMXSystem(
        [_chain(i) for i in range(2)],
        SystemConfig(mode=kwargs.pop("mode")),
        **kwargs,
    )
    records = []

    def client(app):
        for _ in range(2):
            if single:
                records.append((yield from system.submit(app)))
            else:
                records.extend((yield from system.submit_batch(app, count)))

    for app in range(2):
        system.sim.spawn(client(app))
    system.sim.run()
    system.telemetry.finalize()
    return system, records


def run_digest(scenario, count, single=False):
    """SHA-256 of one scenario's artifact lines + records."""
    system, records = _run(scenario, count, single)
    h = hashlib.sha256()
    for line in artifact_lines(system.telemetry):
        h.update(line.encode())
        h.update(b"\n")
    rows = [dataclasses.asdict(r) for r in records]
    h.update(json.dumps(rows, sort_keys=True).encode())
    return h.hexdigest()


GOLDEN = {
    ('all-cpu', 1):
        'fe69e129eda2c77983d7936d1121f62af76c63cd31aaa09bcefa93c1d1994498',
    ('all-cpu', 4):
        '7016db6c96aa0a59f190025785096c488b14a62adab60e9432627e212c5f9eac',
    ('bump-in-the-wire-drx', 1):
        'ad28875f0688f72069e20c207a05fc30c292bed10dd24fa6203831a317ad1bd4',
    ('bump-in-the-wire-drx', 4):
        'e559b550cbc58c0a40933bbe02bf84e384eac1e382b9e9ffc013c8f22426bd80',
    ('bump-in-the-wire-planned', 1):
        '0b2a6f3214af9db0c06d1d5c564da305da181561e3c6578d7c6283fdce964d30',
    ('bump-in-the-wire-planned', 4):
        '2b85c0535a421e77336c9b312724550a65df1f21f95e9f13b26a0fdf6e0a7697',
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
    ('standalone-crash', 1):
        '78d4fcd2153d3cd0f989670dcc8e4134e209560f2a87dfd058fafecdd79dd8f9',
    ('standalone-crash', 4):
        'cbfb6e50d1174171528ea3928e2c49363dc7946918de02925718adc302f2c9cd',
    ('standalone-drx', 1):
        '90278cd13b2efe37d1942f757b5569606b622b4a922b7bb0218b03f8a3e47764',
    ('standalone-drx', 4):
        'aaf710d4b3d6767558f3a9faf9be74ae1d62be86cfb9a9fa30a7d8b57dd5e239',
    ('standalone-drx-hang', 1):
        'b06cd818a0c151f72c32f8cd4fe983f8304d8c8d55e6f638244e84c0b54975dd',
    ('standalone-drx-hang', 4):
        '3d4cd318c67d7d0387610db360989c16defb53ead752d6d4f0c08f00aee257bb',
    ('standalone-planned', 1):
        'b71f51fa79fae74ed11d7fa005fc4a646de3e02ef51b2bc9ae1dfb107255f074',
    ('standalone-planned', 4):
        '34ad9c37a783be104d671f7680160f69a42777ddc2147e69c310bda9de8fe843',
}


@pytest.mark.parametrize("scenario,count", sorted(GOLDEN))
def test_request_path_matches_golden(scenario, count):
    assert run_digest(scenario, count) == GOLDEN[scenario, count]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_batch_of_one_is_a_single_request(scenario):
    assert run_digest(scenario, 1) == run_digest(scenario, 1, single=True)


@pytest.mark.parametrize("count", [1, 4])
def test_scenarios_exercise_their_recovery_paths(count):
    """The fault row must fall back and the crash row must rescue."""
    _, hung = _run("standalone-drx-hang", count)
    assert all(r.fell_back for r in hung)
    _, crashed = _run("standalone-crash", count)
    assert any(r.rescued for r in crashed)
    assert not any(r.failed for r in crashed)


if __name__ == "__main__":  # pragma: no cover - golden capture
    for name in sorted(SCENARIOS):
        for n in (1, 4):
            print(f"    ({name!r}, {n}): {run_digest(name, n)!r},")
