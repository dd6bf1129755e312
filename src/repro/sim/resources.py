"""Shared resources for the DES engine.

Three resource flavours cover everything the DMX model needs:

* :class:`Resource` — a counted resource with a FIFO wait queue (CPU cores,
  DRX units, DMA engines).
* :class:`Server` — a capacity-1 (or N) resource where each job occupies it
  for a caller-computed service time; used for PCIe links, memory channels,
  and anything whose contention is "one transfer at a time".
* :class:`Store` — an unbounded FIFO of items with blocking ``get`` (command
  queues, interrupt queues).

:class:`ServerDevice` is the one occupancy a restructuring device runs
its jobs through (a DRX unit, a DSA engine pool, an XDMA channel pool):
a :class:`Server` slot held for the device's service time, one span
step per job, and counters that move only when the job completes.

All acquisitions are events, so processes compose them with timeouts and
conditions freely.

Hot-path notes (DESIGN.md §12): held slots live in an insertion-ordered
dict so membership/release are O(1) (the old list made every ``release``
an O(n) scan); :class:`PriorityResource` selects its next grantee from a
lazily-pruned heap instead of scanning the whole queue; and
:meth:`Store.get_or_timeout` cancels the losing :class:`Timeout` so a
generous unfired deadline never drags out final ``sim.now``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Deque, Dict, Generator, List, Optional

from .engine import AnyOf, Event, SimulationError, Simulator, Timeout, WaitTimeout

__all__ = [
    "Request", "Resource", "Server", "ServerDevice", "Store",
    "PriorityResource",
]


class Request(Event):
    """The event returned by :meth:`Resource.request`.

    Triggers when the slot is granted. Use as a context token: pass it back
    to :meth:`Resource.release` when done. While the slot is held the
    request is its own value (``req = yield res.request()``); release
    drops that self-reference, so a released request is freed by
    refcounting instead of waiting for the cyclic collector.
    """

    __slots__ = ("resource", "priority", "_requested_at", "_queued")

    def __init__(self, resource: "Resource", priority: int = 0):
        # Inlined Event.__init__, as in Timeout: one request per slot
        # acquisition on every link, DRX unit and DMA engine.
        self.sim = resource.sim
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False
        self._defunct = False
        self._cb0 = None
        self._cbs = None
        self.resource = resource
        self.priority = priority
        self._requested_at: Optional[float] = None
        self._queued = False


class Resource:
    """A counted resource with FIFO (or priority) granting.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity:
        Number of slots that may be held simultaneously.
    name:
        Optional label used in error messages and tracing.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if not capacity >= 1:
            raise ValueError(
                f"capacity must be >= 1 (not NaN), got {capacity}"
            )
        self.sim = sim
        self.capacity = capacity
        self.name = name
        # Insertion-ordered; used as an O(1)-membership set.
        self._users: Dict[Request, None] = {}
        self._queue: Deque[Request] = deque()
        # Statistics for utilization reporting. ``total_wait_time`` covers
        # granted requests only; canceled requests are tracked separately
        # so cancellations don't skew the wait-per-grant figures.
        self.total_wait_time = 0.0
        self.granted_count = 0
        self.canceled_count = 0
        self.canceled_wait_time = 0.0
        self._busy_time = 0.0
        self._last_change = 0.0

    @property
    def in_use(self) -> int:
        """Number of currently-held slots."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def busy_time(self) -> float:
        """Integrated (slots-held x time), for utilization accounting."""
        return self._busy_time + self.in_use * (self.sim.now - self._last_change)

    def _account(self) -> None:
        now = self.sim.now
        self._busy_time += len(self._users) * (now - self._last_change)
        self._last_change = now

    def request(self, priority: int = 0) -> Request:
        """Ask for a slot; the returned event triggers when granted."""
        req = Request(self, priority)
        sim = self.sim
        now = sim.now
        req._requested_at = now
        users = self._users
        if len(users) < self.capacity and self.queue_length == 0:
            # Uncontended fast path: grant inline (zero wait, the event
            # is fresh so the triggered check of ``succeed`` is moot).
            self._busy_time += len(users) * (now - self._last_change)
            self._last_change = now
            users[req] = None
            self.granted_count += 1
            req._triggered = True
            req._value = req
            heappush(sim._heap, (now, next(sim._seq), req))
        else:
            self._enqueue(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        users = self._users
        if request not in users:
            raise SimulationError(
                f"release of a request not holding {self.name or 'resource'}"
            )
        now = self.sim.now
        self._busy_time += len(users) * (now - self._last_change)
        self._last_change = now
        del users[request]
        request._value = None  # break the granted self-reference
        self._grant_waiters()

    def cancel(self, request: Request) -> None:
        """Withdraw a request that has not been granted yet."""
        if not request._queued:
            # ``from None`` keeps the contract of the pre-rework
            # implementation (which suppressed an internal ValueError).
            raise SimulationError(
                f"cancel of a request that is not queued on "
                f"{self.name or 'resource'}"
            ) from None
        self._remove_queued(request)
        self.canceled_count += 1
        if request._requested_at is not None:
            self.canceled_wait_time += self.sim.now - request._requested_at
            request._requested_at = None

    def relinquish(self, request: Request) -> None:
        """Release a granted request, or cancel a still-queued one.

        The cleanup primitive for interrupted processes, which cannot know
        whether their request was granted before the interrupt landed.
        """
        if request in self._users:
            self.release(request)
        else:
            self.cancel(request)

    def _grant(self, request: Request) -> None:
        sim = self.sim
        now = sim.now
        self._busy_time += len(self._users) * (now - self._last_change)
        self._last_change = now
        self._users[request] = None
        self.granted_count += 1
        self.total_wait_time += now - request._requested_at
        request._triggered = True
        request._value = request
        heappush(sim._heap, (now, next(sim._seq), request))

    # -- wait-queue strategy (overridden by PriorityResource) ----------------

    def _enqueue(self, request: Request) -> None:
        request._queued = True
        self._queue.append(request)

    def _select_next(self) -> Request:
        request = self._queue.popleft()
        request._queued = False
        return request

    def _remove_queued(self, request: Request) -> None:
        self._queue.remove(request)
        request._queued = False

    def _grant_waiters(self) -> None:
        queue = self._queue
        users = self._users
        capacity = self.capacity
        while queue and len(users) < capacity:
            request = queue.popleft()
            request._queued = False
            self._grant(request)

    def acquire(self) -> Generator:
        """Process helper: ``req = yield from res.acquire()``."""
        req = self.request()
        yield req
        return req

    def use(self, duration: float) -> Generator:
        """Process helper: hold one slot for ``duration`` time units.

        Interruption-safe: a process interrupted while still *queued*
        withdraws its request (it never held the slot, so releasing
        would corrupt the user list); once granted, the slot is always
        released.
        """
        req = self.request()
        try:
            yield req
            yield self.sim.timeout(duration)
        finally:
            self.relinquish(req)


class PriorityResource(Resource):
    """A :class:`Resource` that grants the lowest-priority-number first.

    Ties break FIFO. Useful for modeling interrupt handling preempting
    batch restructuring work on CPU cores.

    The wait queue is a ``(priority, seq, request)`` heap with lazy
    pruning: cancellation just clears the request's queued flag, and
    :meth:`_select_next` discards dead entries as they surface — O(log n)
    per grant instead of the old O(n) scan of the whole queue.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        super().__init__(sim, capacity=capacity, name=name)
        self._pheap: List = []
        self._pseq = 0
        self._plive = 0

    @property
    def queue_length(self) -> int:
        return self._plive

    def _enqueue(self, request: Request) -> None:
        request._queued = True
        heappush(self._pheap, (request.priority, self._pseq, request))
        self._pseq += 1
        self._plive += 1

    def _select_next(self) -> Request:
        heap = self._pheap
        while True:
            request = heappop(heap)[2]
            if request._queued:
                request._queued = False
                self._plive -= 1
                return request

    def _remove_queued(self, request: Request) -> None:
        # Lazy deletion: the heap entry stays until it surfaces.
        request._queued = False
        self._plive -= 1

    def _grant_waiters(self) -> None:
        while self._plive and len(self._users) < self.capacity:
            self._grant(self._select_next())


class Server:
    """A resource where each job's occupancy time is known on entry.

    ``transfer(duration)`` is a process helper that waits for a free slot,
    occupies it for ``duration``, then releases — exactly the store-and-
    forward contention model used for PCIe links and DRAM channels.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        self.sim = sim
        self.name = name
        self._resource = Resource(sim, capacity=capacity, name=name)
        self.total_service_time = 0.0
        self.jobs_served = 0

    @property
    def queue_length(self) -> int:
        return self._resource.queue_length

    @property
    def in_use(self) -> int:
        return self._resource.in_use

    def busy_time(self) -> float:
        return self._resource.busy_time()

    def utilization(self) -> float:
        """Fraction of elapsed time the server was busy (capacity-1 view)."""
        if self.sim.now == 0:
            return 0.0
        return self.busy_time() / (self.sim.now * self._resource.capacity)

    def transfer(self, duration: float) -> Generator:
        """Occupy one slot for ``duration``; yields until complete.

        Interruption-safe: an interrupt delivered while the job is still
        queued withdraws the request instead of releasing an unheld slot.
        """
        if not duration >= 0:
            raise ValueError(
                f"duration must be non-negative (not NaN), got {duration}"
            )
        req = self._resource.request()
        try:
            yield req
            yield self.sim.timeout(duration)
            self.total_service_time += duration
            self.jobs_served += 1
        finally:
            self._resource.relinquish(req)


class ServerDevice:
    """A device whose every job holds one of ``capacity`` :class:`Server`
    slots for a service time the device computes on entry.

    A subclass prices its job and hands the service time to
    :meth:`_occupy`; the slot, the span and the counters are kept here.
    """

    #: Category of the device's job spans.
    category = ""

    def __init__(self, sim: Simulator, capacity: int, name: str):
        self.sim = sim
        self.name = name
        self._server = Server(sim, capacity=capacity, name=name)
        self.jobs_completed = 0
        self.busy_seconds = 0.0

    @property
    def queue_depth(self) -> int:
        """Jobs in service plus jobs waiting for a slot."""
        server = self._server
        return server.queue_length + server.in_use

    def utilization(self) -> float:
        return self._server.utilization()

    def _occupy(
        self, duration: float, count: int, ctx, **attrs: object
    ) -> Generator:
        """Process: hold one slot for ``duration`` on behalf of a
        ``count``-member job; returns the time from entry to release.

        The job runs under a span step of ``ctx`` (a span context),
        named after the device and carrying ``service_s``, the caller's
        ``attrs`` and, for a coalesced job, ``batch``. The span closes
        with ``queued_s`` (the wait behind busy slots), or, when the job
        is interrupted queued or in service, ``abandoned`` with the
        error's type name. Only a completed job moves
        ``jobs_completed`` (by ``count``) and ``busy_seconds``. The
        context is duck-typed, so the engine needs nothing from the
        telemetry package.
        """
        if count > 1:
            attrs["batch"] = count
        with ctx.step(
            self.name, self.category, self.name, service_s=duration, **attrs
        ) as step:
            start = self.sim.now
            yield from self._server.transfer(duration)
            self.jobs_completed += count
            self.busy_seconds += duration
            elapsed = self.sim.now - start
            step.end_attrs = {"queued_s": elapsed - duration}
        return elapsed


class Store:
    """Unbounded FIFO with blocking ``get`` for producer/consumer processes."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.put_count = 0
        self.canceled_getters = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Add an item; wakes the oldest waiting getter, if any."""
        self.put_count += 1
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event triggering with the next item (immediately if available)."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def cancel(self, event: Event) -> bool:
        """Withdraw a waiting getter (e.g. the loser of an ``AnyOf`` race).

        An abandoned getter left in the queue silently swallows the next
        :meth:`put`, starving whichever consumer actually needed the item —
        every timeout race over :meth:`get` must cancel the losing event.
        Returns True when the getter was still waiting.
        """
        try:
            self._getters.remove(event)
        except ValueError:
            return False
        self.canceled_getters += 1
        return True

    def get_or_timeout(self, timeout_s: float) -> Generator:
        """Process helper: next item, or :class:`WaitTimeout` after ``timeout_s``.

        Whichever side loses the race is canceled: a timed-out getter
        cannot swallow an item a later consumer needed, and a beaten
        :class:`Timeout` cannot drag the end of the simulation (and every
        utilization denominator) out to its unfired deadline.
        """
        get = self.get()
        deadline = Timeout(self.sim, timeout_s)
        yield AnyOf(self.sim, [get, deadline])
        if get.triggered:
            deadline.cancel()
            return get.value
        self.cancel(get)
        raise WaitTimeout(
            f"get on {self.name or 'store'} exceeded {timeout_s} s"
        )

    def peek_all(self) -> List[Any]:
        """Snapshot of queued items (does not consume)."""
        return list(self._items)
