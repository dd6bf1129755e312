"""What each backend's idle price leaves out of the leg it runs.

``backend.unloaded(leg).service_s`` is the contention-free half of
every bid the planner ranks. Each row below runs ``backend.execute(leg)``
alone on a fresh system from t=0, over the leg shapes of
``test_plan_cost.py``, the four DRX placements and counts 1 and 4, and
holds the executed time minus that price to the documented gap:

* none for XDMA, and none for any backend at count 1;
* ``2·(n−1)·DMACosts.chained_descriptor_s`` for CPU and DSA: each of
  the leg's two host-staged transfers chains ``n`` descriptors, which
  the price does not charge;
* ``(n−1)·NotificationCosts.coalesced_s`` for DRX: the completion ISR
  also reaps the ``n−1`` coalesced member completions, and the price
  charges the ISR alone.

A step dropped or doubled moves the gap by tenths of a microsecond or
more, far past the tolerance, while float summation order (under
1e-18 s here) stays inside it. Exact prices would set the count-4 gaps
to zero.
"""

import pytest

from repro.backends import (
    BACKEND_CPU,
    BACKEND_DRX,
    BACKEND_DSA,
    BACKEND_KINDS,
    BACKEND_XDMA,
    PlannerConfig,
)
from repro.backends.xdma import XDMAConfig
from repro.core import DMXSystem, Mode, MotionStage, SystemConfig
from repro.core.system import ALL_PHASES, _RequestState
from repro.interconnect import DMACosts
from repro.runtime.driver import NotificationCosts
from repro.sim import PhaseAccumulator

from .test_plan_cost import SHAPES, _chains

MODES = (Mode.STANDALONE, Mode.BUMP_IN_WIRE, Mode.PCIE_INTEGRATED,
         Mode.INTEGRATED)
COUNTS = (1, 4)
TOLERANCE_S = 1e-15


def _expressible(shape):
    payload, profile, _, _ = SHAPES[shape]
    return XDMAConfig().descriptor_expressible(MotionStage(
        "m", profile, input_bytes=payload, output_bytes=profile.bytes_out,
    ))


#: (shape, mode, count, backend kind), every backend eligible for the leg.
ROWS = [
    (shape, mode, count, kind)
    for shape in SHAPES
    for mode in MODES
    for count in COUNTS
    for kind in BACKEND_KINDS
    if kind != BACKEND_XDMA or _expressible(shape)
]


def _gap(kind, count):
    if kind in (BACKEND_CPU, BACKEND_DSA):
        return 2 * (count - 1) * DMACosts().chained_descriptor_s
    if kind == BACKEND_DRX:
        return (count - 1) * NotificationCosts().coalesced_s
    return 0.0


def _executed_minus_price(shape, mode, count, kind):
    """Run ``kind``'s execute of app 0's leg on an idle system."""
    system = DMXSystem(
        _chains(*SHAPES[shape][:3]), SystemConfig(mode=mode),
        backends=PlannerConfig(),
    )
    planner = system.planner
    backend = planner.backend(kind)
    leg = planner.prices.leg(
        0, system.accel_name(0, 0), system.accel_name(0, 1),
        system.chains[0].stages[1], count,
    ).leg
    assert backend.eligible(leg)
    system.sim.spawn(backend.execute(
        leg, PhaseAccumulator(ALL_PHASES), _RequestState(0),
        system.telemetry.context(request_id=0),
    ))
    system.sim.run()
    return system.sim.now - backend.unloaded(leg).service_s


def test_the_grid_holds_every_eligible_backend():
    assert len(ROWS) == 80
    assert sum(kind == BACKEND_XDMA for *_, kind in ROWS) == 8


@pytest.mark.parametrize(
    "shape,mode,count,kind", ROWS,
    ids=[f"{s}-{m.value}-n{n}-{k}" for s, m, n, k in ROWS],
)
def test_idle_execution_exceeds_the_price_by_the_documented_gap(
    shape, mode, count, kind
):
    gap = _executed_minus_price(shape, mode, count, kind)
    assert abs(gap - _gap(kind, count)) <= TOLERANCE_S
