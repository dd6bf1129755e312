"""Discrete-event simulation engine.

A small, dependency-free process-based DES core in the style of SimPy.
Processes are Python generators that ``yield`` :class:`Event` objects; the
:class:`Simulator` advances virtual time, fires events, and resumes the
processes waiting on them.

The engine is deliberately minimal but complete enough for the DMX system
model: timeouts, process joining, event composition (:class:`AllOf` /
:class:`AnyOf`), and interruption.

Hot-path design (see DESIGN.md §12): every class on the event path uses
``__slots__``; the common single-waiter case stores its callback in a
dedicated slot (``_cb0``) so no per-event list is allocated; the
:meth:`Simulator.run` loop is inlined with the heap and ``heappop``
hoisted to locals; and losers of timeout races are :meth:`Timeout.cancel`-ed
— the loop skips them without advancing the clock, so final ``sim.now``
is the last *useful* event, not the most generous unfired deadline.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def proc(sim):
...     yield sim.timeout(5.0)
...     log.append(sim.now)
>>> _ = sim.spawn(proc(sim))
>>> sim.run()
>>> log
[5.0]
"""

from __future__ import annotations

import copy
import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Simulator",
    "SimulationError",
    "WaitTimeout",
]


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (double-trigger, bad yields)."""


class WaitTimeout(Exception):
    """A timeout-raced wait exceeded its deadline.

    Raised by the timeout-race helpers (:meth:`~repro.sim.resources.Store.get_or_timeout`,
    :func:`repro.faults.with_timeout`) so callers can distinguish a missed
    deadline from a failed operation.
    """


def _waiter_copy(exc: BaseException) -> BaseException:
    """A per-waiter copy of ``exc`` with a fresh traceback.

    A failed event may have many waiters; re-raising the *same* exception
    instance into each one makes tracebacks accrete frames across waiters
    and lets one waiter's handling mutate what the others observe. Each
    waiter gets a shallow copy instead (falling back to the shared
    instance only for exceptions that cannot be reconstructed).
    """
    try:
        clone = copy.copy(exc)
    except Exception:
        return exc
    if type(clone) is not type(exc):
        return exc
    clone.__cause__ = exc.__cause__
    clone.__context__ = exc.__context__
    clone.__suppress_context__ = exc.__suppress_context__
    clone.__traceback__ = None
    return clone


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in virtual time.

    Events start *pending*, become *triggered* when given a value (or an
    exception), and are *processed* once the simulator has run their
    callbacks. Processes wait on events by yielding them.

    Callback storage is two-tier: the first callback lands in the
    ``_cb0`` slot (almost every event has exactly one waiter — the
    process that yielded it), and only a second registration allocates
    the overflow list ``_cbs``.
    """

    __slots__ = (
        "sim",
        "_value",
        "_exception",
        "_triggered",
        "_processed",
        "_defunct",
        "_cb0",
        "_cbs",
    )

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        self._defunct = False
        self._cb0: Optional[Callable[["Event"], None]] = None
        self._cbs: Optional[List[Callable[["Event"], None]]] = None

    @property
    def triggered(self) -> bool:
        """True once the event has been given a value or an exception."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the simulator has fired this event's callbacks."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully (no exception)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The value the event triggered with.

        Raises :class:`SimulationError` when the event is still pending.
        """
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise _waiter_copy(self._exception)
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        sim = self.sim
        heappush(sim._heap, (sim.now, next(sim._seq), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have the exception thrown into them.
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        sim = self.sim
        heappush(sim._heap, (sim.now, next(sim._seq), self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event is processed.

        If the event has already been processed the callback runs
        immediately.
        """
        if self._processed:
            callback(self)
        elif self._cb0 is None:
            self._cb0 = callback
        elif self._cbs is None:
            self._cbs = [callback]
        else:
            self._cbs.append(callback)


class Timeout(Event):
    """An event that triggers automatically after a fixed delay.

    A timeout that lost a race (the operation it guarded completed
    first) should be :meth:`cancel`-ed: the event loop then discards it
    without advancing the clock or firing callbacks, so an unfired
    deadline never defines the end of a simulation.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # ``not >=`` also rejects NaN, which would poison the clock.
        if not delay >= 0:
            raise ValueError(f"negative or NaN timeout delay: {delay!r}")
        # Inlined Event.__init__ — timeouts are the hottest allocation
        # in the engine and the extra super() call is measurable.
        self.sim = sim
        self._value = value
        self._exception = None
        self._triggered = True
        self._processed = False
        self._defunct = False
        self._cb0 = None
        self._cbs = None
        heappush(sim._heap, (sim.now + delay, next(sim._seq), self))

    def cancel(self) -> bool:
        """Discard a scheduled timeout that nothing waits on anymore.

        The heap entry is abandoned in place (O(1)); :meth:`Simulator.run`
        skips defunct entries without touching ``sim.now``. Returns True
        when the timeout was still live; canceling an already-processed
        or already-canceled timeout is a no-op returning False. Only
        safe when no live waiter still depends on the event — its
        callbacks will never fire.
        """
        if self._processed or self._defunct:
            return False
        self._defunct = True
        return True


class Process(Event):
    """A running generator; also an event that triggers when it returns.

    The process event's value is the generator's return value; if the
    generator raises, waiting processes observe the exception.
    """

    __slots__ = ("name", "_generator", "_send", "_throw", "_waiting_on",
                 "_on_wake")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        # Bound methods are cached once: attribute access would
        # otherwise allocate a fresh bound-method object on every yield.
        self._send = generator.send
        self._throw = generator.throw
        self._on_wake: Callable[[Event], None] = self._resume
        # Bootstrap: resume the process at the current time. Tracked as
        # ``_waiting_on`` so a wakeup delivered for anything *else* (a
        # stale event, an earlier interrupt) is ignored by identity.
        bootstrap = Event(sim)
        bootstrap._triggered = True
        bootstrap._cb0 = self._on_wake
        self._waiting_on: Optional[Event] = bootstrap
        heappush(sim._heap, (sim.now, next(sim._seq), bootstrap))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Detaching from the currently-awaited event is O(1) and explicit:
        ``_waiting_on`` is simply cleared, and :meth:`_resume` discards
        any wakeup whose event is not the current wait target (the old
        event's callback later fires into a stale reference and is
        ignored by identity — no list scan, no silent miss). Interrupt
        wakeups are a dedicated event type that bypasses the identity
        check, so several interrupts queued back to back all deliver,
        in order.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        sim = self.sim
        wakeup = _InterruptWakeup(sim)
        wakeup._triggered = True
        wakeup._exception = Interrupt(cause)
        wakeup._cb0 = self._on_wake
        self._waiting_on = None
        heappush(sim._heap, (sim.now, next(sim._seq), wakeup))

    def _release_generator(self) -> None:
        # ``_on_wake`` is a bound method, so a finished process would
        # otherwise sit in a self-referential cycle (and pin its whole
        # generator frame) until the gc's next pass. Dropping the cached
        # references on death restores prompt refcount collection; any
        # stale callback still holding the old bound method fires into
        # the staleness check below and is ignored.
        self._generator = None
        self._send = None
        self._throw = None
        self._on_wake = None

    def _resume(self, event: Event) -> None:
        if event is not self._waiting_on and (
            type(event) is not _InterruptWakeup or self._triggered
        ):
            return  # stale wakeup: detached by an interrupt, or finished
        self._waiting_on = None
        sim = self.sim
        try:
            if event._exception is not None:
                target = self._throw(_waiter_copy(event._exception))
            else:
                target = self._send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            self._release_generator()
            return
        except Interrupt as exc:
            # An unhandled interrupt kills the process but is not an error
            # of the simulation itself.
            self.fail(exc)
            self._release_generator()
            return
        except BaseException as exc:
            if sim.strict:
                raise
            self.fail(exc)
            self._release_generator()
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        if target.sim is not sim:
            raise SimulationError("yielded event belongs to another simulator")
        self._waiting_on = target
        if target._processed:
            self._resume(target)
        elif target._cb0 is None:
            target._cb0 = self._on_wake
        elif target._cb0 is self._on_wake:
            pass  # stale registration from a pre-interrupt wait; reuse it
        elif target._cbs is None:
            target._cbs = [self._on_wake]
        else:
            target._cbs.append(self._on_wake)


class _InterruptWakeup(Event):
    """Out-of-band wakeup queued by :meth:`Process.interrupt`.

    Delivered to the process even while it waits on something else, so
    queued interrupts are never lost; the normal staleness check ignores
    every other event that is not the current wait target.
    """

    __slots__ = ()


class _Condition(Event):
    """Base for AllOf / AnyOf composition events.

    All pending components are counted *before* any callback is
    registered: an already-processed component fires ``_check``
    synchronously during registration, and counting one event at a time
    let ``AllOf([processed, still_pending])`` succeed before the
    remaining components were even seen.
    """

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events: List[Event] = list(events)
        self._pending = len(self.events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("cannot combine events across simulators")
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._check)

    def _collect(self) -> dict:
        return {
            ev: ev._value for ev in self.events if ev._processed and ev.ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every component event has triggered."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Triggers as soon as any component event triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self.succeed(self._collect())


class Simulator:
    """The event loop: a priority queue of (time, tiebreak, event).

    Parameters
    ----------
    strict:
        When True (default) exceptions escaping a process propagate out of
        :meth:`run`; when False they fail the process event instead so
        joiners can observe them.
    """

    def __init__(self, strict: bool = True):
        self.now: float = 0.0
        self.strict = strict
        self._heap: List = []
        # Heap tiebreak (FIFO among same-time events): every push draws
        # ``next(sim._seq)``, a C call rather than a Python method.
        self._seq = itertools.count()
        #: Events processed since construction (canceled entries that
        #: were skipped do not count) — the engine-speed benchmark's
        #: deterministic work measure.
        self.events_processed = 0

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator`` at the current time."""
        return Process(self, generator, name=name)

    # Alias mirroring SimPy naming, some callers read better with it.
    process = spawn

    # -- scheduling core ----------------------------------------------------

    def _queue_event(self, event: Event, delay: float = 0.0) -> None:
        heappush(self._heap, (self.now + delay, next(self._seq), event))

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Run ``callback()`` after ``delay``; returns the underlying event."""
        event = Timeout(self, delay)
        event.add_callback(lambda _ev: callback())
        return event

    def peek(self) -> float:
        """Time of the next *live* scheduled event, or ``inf`` when idle."""
        heap = self._heap
        while heap:
            if heap[0][2]._defunct:
                heappop(heap)
            else:
                return heap[0][0]
        return float("inf")

    def _fire(self, event: Event) -> None:
        """Mark ``event`` processed and run its callbacks in order."""
        event._processed = True
        self.events_processed += 1
        cb0 = event._cb0
        if cb0 is not None:
            event._cb0 = None
            cb0(event)
            cbs = event._cbs
            if cbs is not None:
                event._cbs = None
                for callback in cbs:
                    callback(event)

    def step(self) -> None:
        """Process exactly one live event (skipping canceled entries)."""
        heap = self._heap
        while True:
            if not heap:
                raise SimulationError("step() on an empty event queue")
            when, _tie, event = heappop(heap)
            if not event._defunct:
                break
        if when < self.now:
            raise SimulationError("event scheduled in the past")
        self.now = when
        self._fire(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or virtual time reaches ``until``.

        Canceled (defunct) entries are discarded without advancing the
        clock, so a drained queue leaves ``now`` at the last event that
        actually fired callbacks.
        """
        if until is not None and not until >= self.now:
            raise ValueError(
                f"until={until} is in the past or NaN (now={self.now})"
            )
        heap = self._heap
        pop = heappop
        if until is None:
            # The hot loop: locals only, callbacks fired inline, the
            # processed-event counter flushed once at the end.
            processed = 0
            try:
                while heap:
                    when, _tie, event = pop(heap)
                    if event._defunct:
                        continue
                    self.now = when
                    event._processed = True
                    processed += 1
                    cb0 = event._cb0
                    if cb0 is not None:
                        event._cb0 = None
                        cb0(event)
                        cbs = event._cbs
                        if cbs is not None:
                            event._cbs = None
                            for callback in cbs:
                                callback(event)
            finally:
                self.events_processed += processed
            return
        while heap:
            head = heap[0]
            if head[2]._defunct:
                pop(heap)
                continue
            if head[0] > until:
                break
            when, _tie, event = pop(heap)
            self.now = when
            self._fire(event)
        self.now = until
