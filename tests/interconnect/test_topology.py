"""Unit tests for fabric topology routing and transfers."""

import pytest

from repro.core import DMXSystem, Mode, SystemConfig
from repro.interconnect import (
    KB,
    MB,
    Fabric,
    LinkConfig,
    SWITCH_PORT_LATENCY_S,
)
from repro.sim import Simulator
from repro.workloads import build_benchmark_chains


def build_two_switch_fabric(sim):
    fabric = Fabric(sim)
    sw0 = fabric.add_switch("sw0")
    sw1 = fabric.add_switch("sw1")
    fabric.add_endpoint("a0", sw0)
    fabric.add_endpoint("a1", sw0)
    fabric.add_endpoint("b0", sw1)
    return fabric


def test_same_switch_path_avoids_upstream_link():
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)
    links, hops = fabric.path("a0", "a1")
    names = [l.name for l in links]
    assert names == ["a0.up", "a1.up"]
    assert hops == 1  # through sw0 only


def test_cross_switch_path_traverses_root():
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)
    links, hops = fabric.path("a0", "b0")
    names = [l.name for l in links]
    assert names == ["a0.up", "sw0.up", "sw1.up", "b0.up"]
    assert hops == 2  # sw0 and sw1; the root complex is not a switch hop


def test_endpoint_to_root_path():
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)
    links, hops = fabric.path("a0", "root")
    assert [l.name for l in links] == ["a0.up", "sw0.up"]
    assert hops == 1


def test_path_to_self_is_empty():
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)
    assert fabric.path("a0", "a0") == ((), 0)


def test_memoized_route_follows_every_construction_change():
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)
    assert fabric.path("a0", "b0")[1] == 2
    # A new endpoint: the route to it exists from the next query on.
    fabric.add_endpoint("b1", fabric.nodes["sw1"])
    links, _ = fabric.path("a0", "b1")
    assert [l.name for l in links] == ["a0.up", "sw0.up", "sw1.up", "b1.up"]
    # A mux pair replaces the memoized tree route between its ends.
    assert fabric.path("a0", "a1")[1] == 1
    fabric.add_mux_pair("a0", "a1")
    assert [l.name for l in fabric.path("a0", "a1")[0]] == ["a0<->a1.mux"]
    # An inline device fronting b0 shares b0's uplink and muxes to it.
    assert [l.name for l in fabric.path("b0", "a0")[0]] == [
        "b0.up", "sw1.up", "sw0.up", "a0.up",
    ]
    fabric.add_inline("b0.drx", "b0")
    assert [l.name for l in fabric.path("b0", "b0.drx")[0]] == [
        "b0.drx<->b0.mux"
    ]
    assert [l.name for l in fabric.path("b0.drx", "a0")[0]] == [
        "b0.up", "sw1.up", "sw0.up", "a0.up",
    ]


def test_memoized_route_is_immutable():
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)
    links, hops = fabric.path("a0", "b0")
    assert isinstance(links, tuple)
    with pytest.raises(AttributeError):
        links.append(fabric.links[0])
    # Repeated queries hand back the one memoized route, unchanged.
    assert fabric.path("a0", "b0") is fabric.path("a0", "b0")
    assert [l.name for l in fabric.path("a0", "b0")[0]] == [
        "a0.up", "sw0.up", "sw1.up", "b0.up",
    ]


def test_duplicate_node_name_rejected():
    sim = Simulator()
    fabric = Fabric(sim)
    sw = fabric.add_switch("sw0")
    fabric.add_endpoint("a0", sw)
    with pytest.raises(ValueError):
        fabric.add_endpoint("a0", sw)


def test_cannot_attach_under_endpoint():
    sim = Simulator()
    fabric = Fabric(sim)
    sw = fabric.add_switch("sw0")
    ep = fabric.add_endpoint("a0", sw)
    with pytest.raises(ValueError):
        fabric.add_endpoint("a1", ep)


def test_mux_pair_bypasses_switch():
    sim = Simulator()
    fabric = Fabric(sim)
    sw = fabric.add_switch("sw0")
    fabric.add_endpoint("accel", sw)
    fabric.add_endpoint("drx", sw)
    fabric.add_mux_pair("accel", "drx")
    links, hops = fabric.path("accel", "drx")
    assert len(links) == 1
    assert links[0].name == "accel<->drx.mux"
    assert hops == 0


def test_unloaded_latency_matches_simulated_uncontended_transfer():
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)
    expected = fabric.unloaded_latency("a0", "b0", 4 * MB)
    elapsed = []

    def proc(sim):
        t = yield from fabric.transfer("a0", "b0", 4 * MB)
        elapsed.append(t)

    sim.spawn(proc(sim))
    sim.run()
    assert elapsed[0] == pytest.approx(expected)


def test_switch_latency_charged_per_hop():
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)
    same = fabric.unloaded_latency("a0", "a1", 0)
    cross = fabric.unloaded_latency("a0", "b0", 0)
    # Cross-switch adds two extra links' propagation and one extra switch hop
    # (sw1; the root complex is not a switch).
    link_prop = fabric.link_config.propagation_latency_s
    assert cross - same == pytest.approx(2 * link_prop + SWITCH_PORT_LATENCY_S)


def test_negative_switch_latency_rejected():
    with pytest.raises(ValueError, match="switch_latency_s must be non-neg"):
        Fabric(Simulator(), switch_latency_s=-1e-6)
    assert Fabric(Simulator(), switch_latency_s=0.0).switch_latency_s == 0.0


def test_concurrent_transfers_queue_on_the_link():
    """Two transfers over one link: the second waits for the first."""
    sim = Simulator()
    fabric = Fabric(sim, LinkConfig(propagation_latency_s=0.0))
    fabric.add_endpoint("a", fabric.root)
    link = fabric.nodes["a"].uplink
    ends = []

    def mover(sim):
        yield from fabric.transfer("a", "root", 8 * MB)
        ends.append(sim.now)

    sim.spawn(mover(sim))
    sim.spawn(mover(sim))
    sim.run()
    single = link.transfer_time(8 * MB)
    assert ends == [pytest.approx(single), pytest.approx(2 * single)]
    assert link.bytes_moved == 16 * MB
    assert link.queue_length == 0
    assert link.utilization() == pytest.approx(1.0)


def test_shared_upstream_link_contends():
    """Two cross-switch transfers serialize on the shared sw0 upstream."""
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)
    done = []

    def mover(sim, src):
        yield from fabric.transfer(src, "b0", 16 * MB)
        done.append(sim.now)

    sim.spawn(mover(sim, "a0"))
    sim.spawn(mover(sim, "a1"))
    sim.run()
    solo = fabric.unloaded_latency("a0", "b0", 16 * MB)
    one_link = fabric.nodes["sw0"].uplink.transfer_time(16 * MB)
    # The second finisher queues behind the first on the shared sw0 upstream
    # link, so it is delayed by roughly one link-transfer time.
    assert done[0] == pytest.approx(solo, rel=0.01)
    assert done[1] >= done[0] + 0.8 * one_link


def test_local_p2p_does_not_contend_with_cross_traffic_on_upstream():
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)
    upstream = fabric.nodes["sw0"].uplink
    assert upstream.bytes_moved == 0

    def local(sim):
        yield from fabric.transfer("a0", "a1", 8 * MB)

    sim.spawn(local(sim))
    sim.run()
    assert upstream.bytes_moved == 0


def test_total_bytes_moved_counts_every_link_crossing():
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)

    def mover(sim):
        yield from fabric.transfer("a0", "b0", MB)

    sim.spawn(mover(sim))
    sim.run()
    # 4 links crossed, 1 MB each.
    assert fabric.total_bytes_moved() == 4 * MB


# -- route prices: memoized once per (src, dst), exact to the old formula ------

SIZES = (0, 1, 16 * KB, 6 * MB)


def _reference_duration(fabric, src, dst, nbytes):
    """The cut-through duration as every crossing recomputed it before
    routes were priced once: dedupe the route's links, then the max of
    the per-link serialization times, plus the propagation sum in
    first-crossed order, plus the switch hops."""
    links, switch_hops = fabric.path(src, dst)
    if not links:
        return 0.0
    unique = list({id(link): link for link in links}.values())
    bottleneck = max(nbytes / link.bandwidth for link in unique)
    propagation = sum(link.config.propagation_latency_s for link in unique)
    return bottleneck + propagation + switch_hops * fabric.switch_latency_s


def _mode_fabric(mode):
    # Five apps spill onto a second switch, so routes cross the root.
    chains = build_benchmark_chains("video-surveillance", 5)
    return DMXSystem(chains, SystemConfig(mode=mode)).fabric


@pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.name)
def test_priced_route_equals_the_unmemoized_formula(mode):
    fabric = _mode_fabric(mode)
    for src in fabric.nodes:
        for dst in fabric.nodes:
            for nbytes in SIZES:
                assert fabric.unloaded_latency(src, dst, nbytes) == \
                    _reference_duration(fabric, src, dst, nbytes)
            # Links are acquired deduplicated, in the global name order.
            links = {id(link): link for link in fabric.path(src, dst)[0]}
            assert fabric._priced[(src, dst)][0] == tuple(
                sorted(links.values(), key=lambda link: link.name)
            )


@pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.name)
def test_unloaded_latency_equals_an_executed_idle_transfer(mode):
    fabric = _mode_fabric(mode)
    sim = fabric.sim
    crossings = []

    def mover():
        for src in fabric.nodes:
            for dst in fabric.nodes:
                for nbytes in SIZES:
                    start = sim.now
                    elapsed = yield from fabric.transfer(src, dst, nbytes)
                    crossings.append((start, sim.now, elapsed,
                                      fabric.unloaded_latency(src, dst, nbytes)))

    sim.spawn(mover())
    sim.run()
    assert len(crossings) == len(fabric.nodes) ** 2 * len(SIZES)
    for start, end, elapsed, expected in crossings:
        assert end == start + expected  # held the links for exactly that
        assert elapsed == end - start


def test_route_prices_follow_every_construction_change():
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)
    tree = fabric.unloaded_latency("a0", "a1", MB)
    assert fabric._priced
    # A mux pair re-prices the pair onto its private link.
    fabric.add_mux_pair("a0", "a1")
    assert fabric._priced == {}
    mux = fabric.unloaded_latency("a0", "a1", MB)
    assert mux == _reference_duration(fabric, "a0", "a1", MB) < tree
    # A new node clears the memo too; a narrow link becomes the bottleneck.
    fabric.add_endpoint("slow", fabric.nodes["sw1"], LinkConfig(lanes=1))
    assert fabric._priced == {}
    slow = fabric.unloaded_latency("a0", "slow", MB)
    assert slow == _reference_duration(fabric, "a0", "slow", MB)
    assert slow > fabric.unloaded_latency("a0", "b0", MB)
    fabric.add_switch("sw2")
    assert fabric._priced == {}
    # An inline device shares its host's uplink: priced once, deduplicated.
    fabric.unloaded_latency("b0", "a0", MB)
    fabric.add_inline("b0.drx", "b0")
    assert fabric._priced == {}
    assert fabric.unloaded_latency("b0.drx", "a0", MB) == \
        _reference_duration(fabric, "b0.drx", "a0", MB)
    assert fabric.unloaded_latency("b0", "b0.drx", MB) == \
        _reference_duration(fabric, "b0", "b0.drx", MB)
