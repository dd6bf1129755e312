"""Interrupt/cancel semantics: the engine paths fault recovery leans on.

Covers the bugs the fault-injection layer exposed: releasing a request
the process never held, a withdrawn request that later takes a slot,
and shared exception instances mutating across waiters. The deadline
race itself (:func:`repro.faults.with_timeout`: the losing op is
interrupted and withdraws its request, the losing deadline is
cancelled) is pinned in ``tests/faults/test_recovery.py`` and
``test_engine_bugs.py``.
"""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Interrupt,
    Resource,
    Server,
    SimulationError,
    Simulator,
)


# -- Resource.use / Server.transfer under interruption -----------------------


def test_interrupting_queued_user_withdraws_instead_of_crashing():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    done = []

    def holder(sim):
        yield from res.use(10.0)
        done.append(("holder", sim.now))

    def queued(sim):
        try:
            yield from res.use(1.0)
        except Interrupt:
            done.append(("interrupted", sim.now))

    sim.spawn(holder(sim))
    victim = sim.spawn(queued(sim))
    sim.schedule(2.0, lambda: victim.interrupt("give up"))
    sim.run()
    assert ("interrupted", 2.0) in done
    assert ("holder", 10.0) in done
    # The withdrawn request was never granted: had the holder's release
    # at 10 s granted it, its dead process would hold the slot forever.
    assert res.in_use == 0
    assert res.queue_length == 0
    assert res.request().triggered  # the next request is granted at once


def test_interrupting_queued_user_does_not_starve_later_waiters():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    grants = []

    def user(sim, tag, hold):
        yield from res.use(hold)
        grants.append((tag, sim.now))

    sim.spawn(user(sim, "a", 3.0))
    victim = sim.spawn(user(sim, "b", 3.0))
    sim.spawn(user(sim, "c", 3.0))
    sim.schedule(1.0, lambda: victim.interrupt())
    sim.run()
    # b vanished from the queue; c is granted right when a releases.
    assert grants == [("a", 3.0), ("c", 6.0)]


def test_interrupting_granted_user_releases_slot():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    done = []

    def holder(sim):
        try:
            yield from res.use(10.0)
        except Interrupt:
            done.append(("interrupted", sim.now))

    def waiter(sim):
        yield from res.use(1.0)
        done.append(("waiter", sim.now))

    victim = sim.spawn(holder(sim))
    sim.spawn(waiter(sim))
    sim.schedule(2.0, lambda: victim.interrupt())
    sim.run()
    assert done == [("interrupted", 2.0), ("waiter", 3.0)]
    assert res.in_use == 0


def test_server_transfer_interrupted_while_queued():
    sim = Simulator()
    server = Server(sim, capacity=1)
    done = []

    def job(sim, tag, duration):
        try:
            yield from server.transfer(duration)
            done.append((tag, sim.now))
        except Interrupt:
            done.append((f"{tag}-interrupted", sim.now))

    sim.spawn(job(sim, "a", 5.0))
    victim = sim.spawn(job(sim, "b", 5.0))
    sim.spawn(job(sim, "c", 5.0))
    sim.schedule(1.0, lambda: victim.interrupt())
    sim.run()
    assert done == [("b-interrupted", 1.0), ("a", 5.0), ("c", 10.0)]
    assert server.in_use == 0 and server.queue_length == 0
    # Only the two completed jobs count as served.
    assert server.jobs_served == 2


def test_interrupt_before_first_resume():
    sim = Simulator()
    log = []

    def proc(sim):
        log.append("started")
        yield sim.timeout(1.0)

    victim = sim.spawn(proc(sim))
    victim.interrupt("too soon")
    sim.run()
    assert log == []  # never started
    assert victim.triggered and not victim.ok


# -- Resource.cancel ---------------------------------------------------------


def test_cancel_of_ungranted_request_withdraws_it():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.request()
    assert held.triggered
    waiting = res.request()

    def canceler(sim):
        yield sim.timeout(4.0)
        res.cancel(waiting)
        yield sim.timeout(1.0)
        res.release(held)

    sim.spawn(canceler(sim))
    sim.run()
    # The release at 5 s granted nothing: the withdrawn request left
    # the queue and was never granted.
    assert not waiting.triggered
    assert res.queue_length == 0
    assert res.in_use == 0
    assert res.request().triggered  # the next request is granted at once


def test_cancel_of_non_queued_request_raises_clean_error():
    sim = Simulator()
    res = Resource(sim, capacity=1, name="cores")
    granted = res.request()
    with pytest.raises(SimulationError, match="cores") as excinfo:
        res.cancel(granted)
    # `raise ... from None`: the internal ValueError must not leak out.
    assert excinfo.value.__cause__ is None
    assert excinfo.value.__suppress_context__


def test_relinquish_covers_both_granted_and_queued():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    granted = res.request()
    queued = res.request()
    res.relinquish(queued)
    assert res.queue_length == 0
    res.relinquish(granted)
    assert res.in_use == 0
    assert not queued.triggered  # withdrawn, so the release granted nothing
    assert res.request().triggered  # the next request is granted at once


# -- per-waiter exception isolation ------------------------------------------


def test_each_waiter_gets_its_own_exception_instance():
    sim = Simulator(strict=False)
    shared = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield shared
        except ValueError as exc:
            caught.append(exc)

    sim.spawn(waiter(sim))
    sim.spawn(waiter(sim))
    original = ValueError("boom")
    sim.schedule(1.0, lambda: shared.fail(original))
    sim.run()
    assert len(caught) == 2
    assert caught[0] is not caught[1]
    assert caught[0] is not original
    assert str(caught[0]) == str(caught[1]) == "boom"
    # The stored instance is never mutated by the waiters' tracebacks.
    assert original.__traceback__ is None


def test_condition_failure_does_not_accrete_frames_on_shared_instance():
    sim = Simulator(strict=False)
    bad = sim.event()
    caught = []

    def composite_waiter(sim, make):
        try:
            yield make()
        except ValueError as exc:
            caught.append(exc)

    sim.spawn(composite_waiter(sim, lambda: AllOf(sim, [bad, sim.timeout(5.0)])))
    sim.spawn(composite_waiter(sim, lambda: AnyOf(sim, [bad])))
    original = ValueError("shared")
    sim.schedule(1.0, lambda: bad.fail(original))
    sim.run()
    assert len(caught) == 2
    assert caught[0] is not caught[1]
    assert original.__traceback__ is None


def test_interrupt_cause_survives_per_waiter_copy():
    sim = Simulator()
    seen = []

    def proc(sim):
        try:
            yield sim.timeout(10.0)
        except Interrupt as exc:
            seen.append(exc.cause)

    victim = sim.spawn(proc(sim))
    sim.schedule(1.0, lambda: victim.interrupt({"reason": "deadline"}))
    sim.run()
    assert seen == [{"reason": "deadline"}]
