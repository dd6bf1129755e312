"""Unit tests for DES resources: Resource and Server."""

import pytest

from repro.sim import Resource, Server, SimulationError, Simulator


def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.in_use == 2
    assert res.queue_length == 1


def test_resource_release_grants_next_in_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    grants = []

    def user(sim, tag, hold):
        req = res.request()
        yield req
        grants.append((tag, sim.now))
        yield sim.timeout(hold)
        res.release(req)

    sim.spawn(user(sim, "a", 2.0))
    sim.spawn(user(sim, "b", 2.0))
    sim.spawn(user(sim, "c", 2.0))
    sim.run()
    assert grants == [("a", 0.0), ("b", 2.0), ("c", 4.0)]


def test_resource_use_helper_holds_for_duration():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    done = []

    def user(sim, tag):
        yield from res.use(3.0)
        done.append((tag, sim.now))

    sim.spawn(user(sim, 1))
    sim.spawn(user(sim, 2))
    sim.run()
    assert done == [(1, 3.0), (2, 6.0)]


def test_resource_busy_time_integrates_held_slots():
    # Two slots: a holds 0-4, b 0-2, c queues until b's release and
    # holds 2-4, then both idle until d holds 6-7. A read between
    # grants and releases includes the slots held so far.
    sim = Simulator()
    res = Resource(sim, capacity=2)
    reads = []

    def user(sim, arrive, hold):
        yield sim.timeout(arrive)
        yield from res.use(hold)

    for arrive, hold in ((0.0, 4.0), (0.0, 2.0), (0.0, 2.0), (6.0, 1.0)):
        sim.spawn(user(sim, arrive, hold))
    for at in (1.0, 3.0, 5.0):
        sim.schedule(at, lambda: reads.append(res.busy_time()))
    sim.run()
    assert reads == pytest.approx([2.0, 6.0, 8.0])
    assert sim.now == 7.0
    assert res.busy_time() == pytest.approx(9.0)


def test_release_unheld_request_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.request()
    stray = res.request()
    with pytest.raises(SimulationError):
        res.release(stray)


def test_cancel_removes_queued_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.request()
    queued = res.request()
    res.cancel(queued)
    assert res.queue_length == 0
    with pytest.raises(SimulationError):
        res.cancel(queued)


def test_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_server_serializes_transfers():
    sim = Simulator()
    link = Server(sim, capacity=1)
    ends = []

    def mover(sim, duration):
        yield from link.transfer(duration)
        ends.append(sim.now)

    sim.spawn(mover(sim, 1.0))
    sim.spawn(mover(sim, 1.0))
    sim.spawn(mover(sim, 1.0))
    sim.run()
    assert ends == [1.0, 2.0, 3.0]
    assert link.jobs_served == 3
    assert link.total_service_time == pytest.approx(3.0)


def test_server_parallel_capacity():
    sim = Simulator()
    link = Server(sim, capacity=2)
    ends = []

    def mover(sim):
        yield from link.transfer(1.0)
        ends.append(sim.now)

    for _ in range(4):
        sim.spawn(mover(sim))
    sim.run()
    assert ends == [1.0, 1.0, 2.0, 2.0]


def test_server_utilization_tracks_busy_fraction():
    sim = Simulator()
    link = Server(sim, capacity=1)

    def mover(sim):
        yield from link.transfer(2.0)
        yield sim.timeout(2.0)

    sim.spawn(mover(sim))
    sim.run()
    assert sim.now == 4.0
    assert link.utilization() == pytest.approx(0.5)


def test_server_rejects_negative_duration():
    sim = Simulator()
    link = Server(sim)

    def mover(sim):
        yield from link.transfer(-1.0)

    sim.spawn(mover(sim))
    with pytest.raises(ValueError):
        sim.run()
