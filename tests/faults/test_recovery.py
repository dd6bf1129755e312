"""with_timeout / retry combinators and the recovering DMA + driver paths."""

import pytest

from repro.faults import (
    FaultInjector,
    FaultPolicy,
    InjectedFault,
    RetryExhausted,
    RetryPolicy,
    retry,
    with_timeout,
)
from repro.interconnect import DMACosts, DMAEngine, Fabric
from repro.sim import Resource, Simulator, WaitTimeout
from repro.telemetry import Telemetry


def drive(sim, gen):
    """Spawn ``gen``, run the sim, and return (value, exception).

    ``outcome["at"]`` records the sim time the generator finished —
    ``sim.now`` after :meth:`run` is later, because loser timeout events
    from ``AnyOf`` races stay in the heap until the run drains.
    """
    outcome = drive.outcome = {}

    def wrapper(sim):
        try:
            outcome["value"] = yield from gen
        except Exception as exc:  # noqa: BLE001 - tests inspect it
            outcome["error"] = exc
        outcome["at"] = sim.now

    sim.spawn(wrapper(sim))
    sim.run()
    return outcome.get("value"), outcome.get("error")


# -- with_timeout -------------------------------------------------------------


def test_with_timeout_returns_value_when_op_beats_deadline():
    sim = Simulator()

    def op(sim):
        yield sim.timeout(1.0)
        return "fast"

    value, error = drive(sim, with_timeout(sim, op(sim), 5.0))
    assert (value, error) == ("fast", None)
    assert drive.outcome["at"] == 1.0


def test_with_timeout_raises_and_interrupts_slow_op():
    sim = Simulator()
    finished = []

    def op(sim):
        yield sim.timeout(10.0)
        finished.append("late")

    value, error = drive(sim, with_timeout(sim, op(sim), 2.0, what="slow-op"))
    assert isinstance(error, WaitTimeout)
    assert "slow-op" in str(error)
    # The deadline fires at 2 s; the interrupted op never reaches 10 s.
    assert drive.outcome["at"] == 2.0
    assert finished == []


def test_with_timeout_deadline_releases_held_resources():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def op(sim):
        yield from res.use(10.0)

    _, error = drive(sim, with_timeout(sim, op(sim), 2.0))
    assert isinstance(error, WaitTimeout)
    # The interrupted child's finally block gave the slot back.
    assert res.in_use == 0 and res.queue_length == 0


def test_with_timeout_deadline_withdraws_queued_request():
    # The op loses its race while still queued behind a holder, so it
    # must withdraw: were its request granted at the holder's release,
    # its dead process would keep the slot and the live waiter queued
    # after it would starve.
    sim = Simulator()
    res = Resource(sim, capacity=1)
    done = []

    def holder(sim):
        yield from res.use(2.0)

    def impatient(sim):
        try:
            yield from with_timeout(sim, res.use(1.0), 1.0)
        except WaitTimeout:
            done.append(("timeout", sim.now))

    def patient(sim):
        yield from res.use(1.0)
        done.append(("patient", sim.now))

    sim.spawn(holder(sim))
    sim.spawn(impatient(sim))
    sim.spawn(patient(sim))
    sim.run()
    assert done == [("timeout", 1.0), ("patient", 3.0)]
    assert res.in_use == 0 and res.queue_length == 0


def test_with_timeout_propagates_op_exception():
    sim = Simulator()

    def op(sim):
        yield sim.timeout(0.5)
        raise InjectedFault(site="dma")

    _, error = drive(sim, with_timeout(sim, op(sim), 5.0))
    assert isinstance(error, InjectedFault)


def test_with_timeout_none_runs_inline():
    sim = Simulator()

    def op(sim):
        yield sim.timeout(3.0)
        return 42

    value, _ = drive(sim, with_timeout(sim, op(sim), None))
    assert value == 42 and sim.now == 3.0


class Aborted(Exception):
    """The abort exception of the tests below; records ``inflight``."""

    def __init__(self, inflight):
        super().__init__(f"aborted (inflight={inflight})")
        self.inflight = inflight


@pytest.mark.parametrize("case", [
    "fired-before", "abort-first", "abort-first-no-deadline",
    "same-instant", "deadline-first",
])
def test_with_timeout_abort_races_the_op_and_the_deadline(case):
    """``abort=(event, make_exc)`` adds a third racer. An event that has
    already fired fails the call at once with ``make_exc(False)`` and
    never starts the op; one that fires first interrupts the op (its
    held slot is released), cancels the deadline and raises
    ``make_exc(True)``; an op that finishes at the abort's instant still
    wins; and a deadline that comes first still raises WaitTimeout."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    abort = sim.event()
    started = []

    def op(sim, wait):
        started.append(sim.now)
        req = res.request()
        try:
            yield req
            yield wait
        finally:
            res.relinquish(req)
        return "done"

    hang = sim.event()  # never fires
    timeout_s = 5.0
    if case == "fired-before":
        abort.succeed()
        wait = hang
    elif case in ("abort-first", "abort-first-no-deadline"):
        sim.schedule(1.0, abort.succeed)
        wait = hang
        if case == "abort-first-no-deadline":
            timeout_s = None
    elif case == "same-instant":
        # Scheduled before the op's own timer, so the abort event fires
        # first at t=1 and is triggered when the race resumes.
        sim.schedule(1.0, abort.succeed)
        wait = sim.timeout(1.0)
    else:
        sim.schedule(8.0, abort.succeed)
        wait = hang
        timeout_s = 2.0

    value, error = drive(sim, with_timeout(
        sim, op(sim, wait), timeout_s, what="leg", abort=(abort, Aborted),
    ))
    assert res.in_use == 0 and res.queue_length == 0
    if case == "fired-before":
        assert isinstance(error, Aborted) and error.inflight is False
        assert started == [] and drive.outcome["at"] == 0.0
        assert sim.now == 0.0
    elif case in ("abort-first", "abort-first-no-deadline"):
        assert isinstance(error, Aborted) and error.inflight is True
        assert drive.outcome["at"] == 1.0
        # The cancelled deadline does not drag the clock out to 5 s.
        assert sim.now == 1.0
    elif case == "same-instant":
        assert (value, error) == ("done", None)
        assert abort.triggered and drive.outcome["at"] == 1.0
        assert sim.now == 1.0
    else:
        assert isinstance(error, WaitTimeout) and "leg" in str(error)
        assert drive.outcome["at"] == 2.0


# -- retry --------------------------------------------------------------------


def test_retry_policy_backoff_is_bounded_exponential():
    policy = RetryPolicy(max_attempts=5, backoff_base_s=1e-6,
                         backoff_multiplier=2.0, backoff_cap_s=3e-6)
    assert [policy.backoff(n) for n in range(4)] == pytest.approx(
        [1e-6, 2e-6, 3e-6, 3e-6]  # capped
    )
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_multiplier=0.5)


def test_retry_succeeds_after_transient_failures():
    sim = Simulator()
    attempts = []

    def make_op():
        def op(sim):
            attempts.append(sim.now)
            yield sim.timeout(1e-6)
            if len(attempts) < 3:
                raise InjectedFault(site="dma")
            return "recovered"
        return op(sim)

    policy = RetryPolicy(max_attempts=4, backoff_base_s=10e-6,
                         backoff_multiplier=2.0, backoff_cap_s=1e-3)
    value, error = drive(sim, retry(sim, make_op, policy))
    assert error is None
    assert value == ("recovered", 2)  # succeeded on the third attempt
    # Deterministic backoff: attempt starts at 0, then +op+10us, +op+20us.
    assert attempts == pytest.approx([0.0, 11e-6, 32e-6])


def test_retry_exhaustion_preserves_last_cause():
    sim = Simulator()

    def make_op():
        def op(sim):
            yield sim.timeout(1e-6)
            raise InjectedFault(site="dma", actor="eng")
        return op(sim)

    _, error = drive(sim, retry(sim, make_op,
                                RetryPolicy(max_attempts=3), what="dma-op"))
    assert isinstance(error, RetryExhausted)
    assert error.attempts == 3
    assert isinstance(error.last, InjectedFault)
    assert "dma-op" in str(error)


def test_retry_does_not_catch_non_retryable_exceptions():
    sim = Simulator()

    def make_op():
        def op(sim):
            yield sim.timeout(1e-6)
            raise ValueError("programming error")
        return op(sim)

    _, error = drive(sim, retry(sim, make_op, RetryPolicy(max_attempts=5)))
    assert isinstance(error, ValueError)


def test_retry_reports_each_failed_attempt():
    sim = Simulator()
    observed = []

    def make_op():
        def op(sim):
            yield sim.timeout(10.0)  # always hits the 1 s deadline
        return op(sim)

    _, error = drive(sim, retry(
        sim, make_op, RetryPolicy(max_attempts=2, backoff_base_s=0.1),
        timeout_s=1.0,
        on_attempt_failed=lambda a, e, w: observed.append((a, type(e), w)),
    ))
    assert isinstance(error, RetryExhausted)
    assert observed == [(0, WaitTimeout, True), (1, WaitTimeout, False)]


# -- DMAEngine recovery -------------------------------------------------------


def two_node_fabric(sim):
    fabric = Fabric(sim)
    switch = fabric.add_switch("sw0")
    fabric.add_endpoint("a", switch)
    fabric.add_endpoint("b", switch)
    return fabric


def test_dma_engine_retries_injected_failures():
    sim = Simulator()
    fabric = two_node_fabric(sim)
    injector = FaultInjector(
        sim, seed=11, policies={"dma": FaultPolicy(fail_p=0.5)},
    )
    engine = DMAEngine(sim, fabric, DMACosts(), injector=injector,
                       timeout_s=1.0, retry_policy=RetryPolicy(max_attempts=8))
    telemetry = Telemetry(sim)
    will_retry = []

    def workload(sim):
        for _ in range(20):
            yield from engine.transfer(
                "a", "b", 4096, telemetry.context(),
                on_retry=lambda attempt, exc, again: will_retry.append(again),
            )

    sim.spawn(workload(sim))
    sim.run()
    assert engine.transfers_completed == 20
    # No transfer failed: every DMA span closed clean.
    assert [span.category for span in telemetry.spans] == ["dma"] * 20
    assert not any("abandoned" in span.attrs for span in telemetry.spans)
    # Every injected failure was retried; none exhausted its policy.
    assert will_retry == [True] * injector.injected_count("dma")
    assert len(will_retry) > 0


def test_dma_engine_hang_reclaimed_by_watchdog_without_leaking_links():
    sim = Simulator()
    fabric = two_node_fabric(sim)
    injector = FaultInjector(
        sim, seed=0, policies={"dma": FaultPolicy(hang_p=1.0)},
    )
    engine = DMAEngine(sim, fabric, DMACosts(), injector=injector,
                       timeout_s=1e-3, retry_policy=RetryPolicy(max_attempts=2))
    telemetry = Telemetry(sim)
    errors = []

    def workload(sim):
        try:
            yield from engine.transfer("a", "b", 4096, telemetry.context())
        except RetryExhausted as exc:
            errors.append(exc)

    sim.spawn(workload(sim))
    sim.run()
    assert len(errors) == 1
    # The one transfer failed: its span closed abandoned, nothing counted.
    (span,) = telemetry.spans
    assert span.attrs["abandoned"] is True
    assert span.attrs["error"] == "RetryExhausted"
    assert engine.transfers_completed == 0
    # Hung attempts never acquired fabric links, so nothing is stuck.
    for link in fabric.path("a", "b")[0]:
        assert link.queue_length == 0
        assert link._slot.in_use == 0


def test_dma_recovery_plumbing_costs_no_simulated_time_when_quiet():
    def elapsed(engine_kwargs):
        sim = Simulator()
        fabric = two_node_fabric(sim)
        if "make_injector" in engine_kwargs:
            engine_kwargs = dict(engine_kwargs)
            engine_kwargs["injector"] = engine_kwargs.pop("make_injector")(sim)
        engine = DMAEngine(sim, fabric, DMACosts(), **engine_kwargs)
        ctx = Telemetry(sim).context()
        times = []

        def workload(sim):
            t = yield from engine.transfer("a", "b", 1 << 20, ctx)
            times.append(t)

        sim.spawn(workload(sim))
        sim.run()
        return times[0]

    plain = elapsed({})
    # An armed watchdog + an injector with no probability mass perturb
    # nothing: the transfer takes exactly as long as the plain engine's.
    guarded = elapsed({
        "make_injector": lambda sim: FaultInjector(sim, seed=0),
        "timeout_s": 10.0,
        "retry_policy": RetryPolicy(max_attempts=3),
    })
    assert guarded == plain
