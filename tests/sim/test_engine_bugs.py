"""Regression tests for latent bugs of the original engine, each fixed
when the engine's hot path was reworked:

* ``AllOf`` over a list whose *first* component was already processed
  triggered before the remaining components were even counted, because
  ``_Condition.__init__`` incremented ``_pending`` one event at a time
  while registering callbacks.
* A ``Timeout`` that lost a race (the deadline of
  ``faults.with_timeout``) stayed in the heap, so ``Simulator.run()``
  drained through it and dragged final ``sim.now`` — and every
  ``Server.utilization()`` denominator — out to the timeout deadline.
* ``Process.interrupt`` detached from the waited-on event with an O(n)
  ``callbacks.remove`` that silently did nothing when the callback was
  absent; the rework makes detach O(1) (stale wakeups are ignored by
  identity) and this file pins interrupt-under-many-waiters behavior.
* NaN times passed both ordering checks (``delay < 0`` in ``Timeout``,
  ``until < now`` in ``Simulator.run``): a NaN timeout set the clock to
  NaN, a later event then fired out of order, and ``run(until=nan)``
  left ``now`` at NaN.
"""

import pytest

from repro.faults import with_timeout
from repro.sim import (
    AllOf,
    Interrupt,
    Server,
    Simulator,
    Timeout,
    WaitTimeout,
)


# -- bug 1: AllOf over an already-processed component -------------------------


def test_allof_with_processed_first_component_waits_for_the_rest():
    sim = Simulator()
    done = sim.event()
    done.succeed("early")
    sim.run()  # process `done` fully
    assert done.processed

    still_pending = sim.event()
    cond = AllOf(sim, [done, still_pending])
    # The already-processed component fires its callback synchronously
    # during registration; the condition must NOT succeed before the
    # pending component is counted.
    assert not cond.triggered
    still_pending.succeed("late")
    sim.run()
    assert cond.triggered
    assert sorted(cond.value.values()) == ["early", "late"]


def test_allof_all_processed_components_triggers_immediately():
    sim = Simulator()
    a, b = sim.event(), sim.event()
    a.succeed(1)
    b.succeed(2)
    sim.run()
    cond = AllOf(sim, [a, b])
    assert cond.triggered
    assert sorted(cond.value.values()) == [1, 2]


def test_allof_processed_failed_component_fails_condition():
    sim = Simulator(strict=False)
    bad = sim.event()
    bad.fail(RuntimeError("boom"))
    sim.run()
    pending = sim.event()
    cond = AllOf(sim, [bad, pending])
    assert cond.triggered and not cond.ok


# -- bug 2: a lost Timeout drags final sim.now --------------------------------


def _fired_at_one_second(sim, value=None):
    """An event that a producer process fires with ``value`` at 1 s."""
    event = sim.event()

    def producer(sim):
        yield sim.timeout(1.0)
        event.succeed(value)

    sim.spawn(producer(sim))
    return event


def _wait_for(event):
    """An op that ends when ``event`` fires, returning its value."""
    return (yield event)


def test_lost_timeout_does_not_drag_final_now():
    sim = Simulator()
    ready = _fired_at_one_second(sim, "item")
    got = []

    def consumer(sim):
        item = yield from with_timeout(sim, _wait_for(ready), 1000.0)
        got.append((sim.now, item))

    sim.spawn(consumer(sim))
    sim.run()
    assert got == [(1.0, "item")]
    # The generous unfired 1000 s timeout must not define the end of
    # the simulation.
    assert sim.now == 1.0


def test_lost_timeout_does_not_deflate_server_utilization():
    sim = Simulator()
    server = Server(sim, name="link")
    go = _fired_at_one_second(sim)

    def worker(sim):
        yield from with_timeout(sim, _wait_for(go), 999.0)
        yield from server.transfer(1.0)

    sim.spawn(worker(sim))
    sim.run()
    assert sim.now == pytest.approx(2.0)
    # Busy 1 s of a 2 s run: utilization 0.5, not 1/1000th of that.
    assert server.utilization() == pytest.approx(0.5)


def test_canceled_timeout_is_skipped_without_firing():
    sim = Simulator()
    fired = []
    t = Timeout(sim, 5.0)
    t.add_callback(lambda ev: fired.append(sim.now))
    assert t.cancel()
    assert not t.cancel()  # second cancel is a no-op
    sim.run()
    assert fired == []
    assert sim.now == 0.0
    assert sim.peek() == float("inf")


def test_with_timeout_winner_cancels_deadline():
    sim = Simulator()
    result = []

    def op(sim):
        yield sim.timeout(2.0)
        return "done"

    def caller(sim):
        value = yield from with_timeout(sim, op(sim), 500.0, what="op")
        result.append((sim.now, value))

    sim.spawn(caller(sim))
    sim.run()
    assert result == [(2.0, "done")]
    assert sim.now == 2.0


def test_with_timeout_deadline_still_fires_when_op_is_slow():
    sim = Simulator()
    caught = []

    def op(sim):
        yield sim.timeout(100.0)

    def caller(sim):
        try:
            yield from with_timeout(sim, op(sim), 1.0, what="op")
        except WaitTimeout:
            caught.append(sim.now)

    sim.spawn(caller(sim))
    sim.run()
    assert caught == [1.0]


# -- bug 3: interrupt detach under many waiters -------------------------------


def test_interrupt_under_many_waiters_leaves_others_attached():
    sim = Simulator()
    gate = sim.event()
    woken = []
    interrupted = []

    def waiter(sim, tag):
        try:
            value = yield gate
            woken.append((tag, sim.now, value))
        except Interrupt as exc:
            interrupted.append((tag, sim.now, exc.cause))
            # Keep living past the interrupt; the gate firing later
            # must NOT resume this process a second time.
            yield sim.timeout(50.0)
            woken.append((tag, sim.now, "after-interrupt"))

    procs = [sim.spawn(waiter(sim, tag)) for tag in range(5)]

    def attacker(sim):
        yield sim.timeout(1.0)
        procs[2].interrupt("preempt")

    def opener(sim):
        yield sim.timeout(2.0)
        gate.succeed("open")

    sim.spawn(attacker(sim))
    sim.spawn(opener(sim))
    sim.run()
    assert interrupted == [(2, 1.0, "preempt")]
    # The four surviving waiters woke exactly once, in FIFO order; the
    # interrupted process was not double-resumed by the gate.
    assert woken == [
        (0, 2.0, "open"),
        (1, 2.0, "open"),
        (3, 2.0, "open"),
        (4, 2.0, "open"),
        (2, 51.0, "after-interrupt"),
    ]


def test_double_interrupt_delivers_both_without_double_resume():
    sim = Simulator()
    causes = []

    def victim(sim):
        for _ in range(2):
            try:
                yield sim.timeout(100.0)
            except Interrupt as exc:
                causes.append((sim.now, exc.cause))
        yield sim.timeout(1.0)
        causes.append((sim.now, "survived"))

    vp = sim.spawn(victim(sim))

    def attacker(sim):
        yield sim.timeout(1.0)
        vp.interrupt("first")
        vp.interrupt("second")

    sim.spawn(attacker(sim))
    sim.run()
    assert causes == [(1.0, "first"), (1.0, "second"), (2.0, "survived")]


def test_interrupted_then_rewait_same_event_resumes_once():
    sim = Simulator()
    log = []

    def victim(sim, gate):
        try:
            yield gate
            log.append("clean")
        except Interrupt:
            value = yield gate  # wait on the SAME event again
            log.append(("rewait", sim.now, value))

    gate = sim.event()
    vp = sim.spawn(victim(sim, gate))

    def driver(sim):
        yield sim.timeout(1.0)
        vp.interrupt()
        yield sim.timeout(1.0)
        gate.succeed("go")

    sim.spawn(driver(sim))
    sim.run()
    assert log == [("rewait", 2.0, "go")]


# -- bug 4: NaN times slip past the ordering checks ----------------------------


def test_nan_timeout_delay_is_rejected():
    sim = Simulator()
    with pytest.raises(ValueError, match="NaN"):
        sim.timeout(float("nan"))
    with pytest.raises(ValueError, match="NaN"):
        Timeout(sim, float("nan"), value="x")
    assert sim.peek() == float("inf")  # nothing was scheduled


def test_nan_timeout_cannot_poison_the_clock():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(2.0)
        seen.append(sim.now)

    sim.spawn(proc(sim))
    with pytest.raises(ValueError):
        sim.timeout(float("nan"))
    sim.run()
    assert seen == [2.0]
    assert sim.now == 2.0


def test_nan_schedule_is_rejected():
    sim = Simulator()
    with pytest.raises(ValueError, match="NaN"):
        sim.schedule(float("nan"), lambda: None)


def test_run_until_nan_is_rejected():
    sim = Simulator()
    sim.timeout(1.0)
    with pytest.raises(ValueError, match="NaN"):
        sim.run(until=float("nan"))
    assert sim.now == 0.0
    sim.run(until=1.5)
    assert sim.now == 1.5
