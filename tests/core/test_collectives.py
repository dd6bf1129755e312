"""Tests for one-to-many / many-to-one data movement (Fig. 17 substrate)."""

import pytest

from repro.core import (
    CollectiveSystem,
    Mode,
    SystemConfig,
    collective_profile,
    reduction_profile,
)

MB = 1024 * 1024


def run(operation, mode, n, nbytes=4 * MB):
    system = CollectiveSystem(n, SystemConfig(mode=mode))
    return system.run(operation, nbytes)


def test_collective_profile_volume():
    p = collective_profile(8 * MB)
    assert p.bytes_in == 8 * MB and p.bytes_out == 8 * MB
    assert p.total_ops > 0


def test_reduction_profile_scales_with_sources():
    p4 = reduction_profile(MB, 4)
    p8 = reduction_profile(MB, 8)
    assert p8.bytes_in == 2 * p4.bytes_in
    assert p8.total_ops == pytest.approx(2 * p4.total_ops)


def test_system_validation():
    with pytest.raises(ValueError):
        CollectiveSystem(1, SystemConfig(mode=Mode.MULTI_AXL))
    with pytest.raises(ValueError):
        CollectiveSystem(4, SystemConfig(mode=Mode.INTEGRATED))
    system = CollectiveSystem(4, SystemConfig(mode=Mode.MULTI_AXL))
    with pytest.raises(ValueError):
        system.run("gather", MB)


def test_groups_follow_switch_fanout():
    system = CollectiveSystem(
        20, SystemConfig(mode=Mode.BUMP_IN_WIRE, accelerators_per_switch=8)
    )
    assert [len(g) for g in system.groups] == [8, 8, 4]


@pytest.mark.parametrize("operation", ["broadcast", "allreduce"])
def test_dmx_beats_baseline(operation):
    base = run(operation, Mode.MULTI_AXL, 8)
    dmx = run(operation, Mode.BUMP_IN_WIRE, 8)
    assert base.latency_s > dmx.latency_s


@pytest.mark.parametrize("operation", ["broadcast", "allreduce"])
def test_speedup_grows_with_fanout(operation):
    def speedup(n):
        base = run(operation, Mode.MULTI_AXL, n)
        dmx = run(operation, Mode.BUMP_IN_WIRE, n)
        return base.latency_s / dmx.latency_s

    assert speedup(32) > speedup(4)


def test_allreduce_gains_more_than_broadcast():
    """Paper: all-reduce involves more DMA + restructuring, so DMX helps
    it more."""
    def speedup(operation, n):
        base = run(operation, Mode.MULTI_AXL, n)
        dmx = run(operation, Mode.BUMP_IN_WIRE, n)
        return base.latency_s / dmx.latency_s

    for n in (8, 16, 32):
        assert speedup("allreduce", n) > speedup("broadcast", n)


def test_latency_scales_with_payload():
    small = run("broadcast", Mode.BUMP_IN_WIRE, 8, nbytes=MB)
    large = run("broadcast", Mode.BUMP_IN_WIRE, 8, nbytes=8 * MB)
    assert large.latency_s > small.latency_s


def test_result_metadata():
    result = run("allreduce", Mode.MULTI_AXL, 4)
    assert result.operation == "allreduce"
    assert result.mode == Mode.MULTI_AXL
    assert result.n_accelerators == 4


#: (operation, mode, accelerators) -> latency of a 4 MB collective, as
#: the model computed it before the collectives recorded spans.
PINNED_LATENCY_S = {
    ("broadcast", Mode.MULTI_AXL, 4): 0.007830038690618563,
    ("broadcast", Mode.MULTI_AXL, 16): 0.027997635396500898,
    ("broadcast", Mode.BUMP_IN_WIRE, 4): 0.0028524125552941175,
    ("broadcast", Mode.BUMP_IN_WIRE, 16): 0.0066153649082352954,
    ("allreduce", Mode.MULTI_AXL, 4): 0.019753829847441562,
    ("allreduce", Mode.MULTI_AXL, 16): 0.1502530470950816,
    ("allreduce", Mode.BUMP_IN_WIRE, 4): 0.006920621811764707,
    ("allreduce", Mode.BUMP_IN_WIRE, 16): 0.01663520459764706,
}


@pytest.mark.parametrize(
    "operation,mode,n", sorted(
        PINNED_LATENCY_S, key=lambda key: (key[0], key[1].value, key[2])
    ), ids=lambda v: getattr(v, "value", v),
)
def test_a_collective_records_every_operation_and_closes_every_span(
    operation, mode, n
):
    system = CollectiveSystem(n, SystemConfig(mode=mode))
    result = system.run(operation, 4 * MB)
    assert result.latency_s == PINNED_LATENCY_S[operation, mode, n]
    telemetry = system.telemetry
    assert telemetry.tracker.open_count == 0
    categories = {span.category for span in telemetry.spans}
    assert "dma" in categories
    assert ("drx" in categories) == (mode is Mode.BUMP_IN_WIRE)
    assert all(span.end <= result.latency_s for span in telemetry.spans)
    assert not any(
        "abandoned" in span.attrs or "truncated" in span.attrs
        for span in telemetry.spans
    )


@pytest.mark.parametrize(
    "mode", [Mode.MULTI_AXL, Mode.BUMP_IN_WIRE], ids=lambda m: m.value
)
@pytest.mark.parametrize("operation", ["broadcast", "allreduce"])
def test_a_second_run_reports_its_own_latency(operation, mode):
    # Each run reports the time from its own start, not the clock the
    # system has accumulated: a second identical collective on the same
    # system takes as long as the first.
    system = CollectiveSystem(4, SystemConfig(mode=mode))
    first = system.run(operation, 4 * MB)
    second = system.run(operation, 4 * MB)
    assert first.latency_s == PINNED_LATENCY_S[operation, mode, 4]
    assert second.latency_s == pytest.approx(first.latency_s, rel=1e-9)
    assert system.sim.now == pytest.approx(2 * first.latency_s, rel=1e-9)
