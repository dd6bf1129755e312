"""Shared resources for the DES engine.

Two resource flavours cover everything the DMX model needs:

* :class:`Resource` — a counted resource with a FIFO wait queue (CPU cores,
  DRX units, DMA engines).
* :class:`Server` — a capacity-1 (or N) resource where each job occupies it
  for a caller-computed service time; used for PCIe links, memory channels,
  and anything whose contention is "one transfer at a time".

:class:`ServerDevice` is the one occupancy a restructuring device runs
its jobs through (a DRX unit, a DSA engine pool, an XDMA channel pool):
a :class:`Server` slot held for the device's service time, one span
step per job, and counters that move only when the job completes.

All acquisitions are events, so processes compose them with timeouts and
conditions freely.

Hot-path notes (DESIGN.md §12): held slots live in an insertion-ordered
dict so membership/release are O(1) (the old list made every ``release``
an O(n) scan), and a request carries nothing but its event state.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Deque, Dict, Generator

from .engine import Event, SimulationError, Simulator

__all__ = ["Request", "Resource", "Server", "ServerDevice"]


class Request(Event):
    """The event returned by :meth:`Resource.request`.

    Triggers when the slot is granted. Use as a context token: pass it back
    to :meth:`Resource.release` when done. While the slot is held the
    request is its own value (``req = yield res.request()``); release
    drops that self-reference, so a released request is freed by
    refcounting instead of waiting for the cyclic collector.
    """

    __slots__ = ()

    def __init__(self, sim: Simulator):
        # Inlined Event.__init__, as in Timeout: one request per slot
        # acquisition on every link, DRX unit and DMA engine.
        self.sim = sim
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False
        self._defunct = False
        self._cb0 = None
        self._cbs = None


class Resource:
    """A counted resource with FIFO granting.

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
        # Slots held x time up to ``_last_change``, for utilization.
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

    def request(self) -> Request:
        """Ask for a slot; the returned event triggers when granted."""
        sim = self.sim
        req = Request(sim)
        users = self._users
        if len(users) < self.capacity and not self._queue:
            # Uncontended fast path: grant inline (the event is fresh,
            # so the triggered check of ``succeed`` is moot).
            now = sim.now
            self._busy_time += len(users) * (now - self._last_change)
            self._last_change = now
            users[req] = None
            req._triggered = True
            req._value = req
            heappush(sim._heap, (now, next(sim._seq), req))
        else:
            self._queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot, granting the oldest waiters
        the slots that are now free."""
        users = self._users
        if request not in users:
            raise SimulationError(
                f"release of a request not holding {self.name or 'resource'}"
            )
        sim = self.sim
        now = sim.now
        self._busy_time += len(users) * (now - self._last_change)
        self._last_change = now
        del users[request]
        request._value = None  # break the granted self-reference
        queue = self._queue
        while queue and len(users) < self.capacity:
            waiter = queue.popleft()
            users[waiter] = None
            waiter._triggered = True
            waiter._value = waiter
            heappush(sim._heap, (now, next(sim._seq), waiter))

    def cancel(self, request: Request) -> None:
        """Withdraw a request that has not been granted yet."""
        try:
            self._queue.remove(request)
        except ValueError:
            raise SimulationError(
                f"cancel of a request that is not queued on "
                f"{self.name or 'resource'}"
            ) from None

    def relinquish(self, request: Request) -> None:
        """Release a granted request, or cancel a still-queued one.

        The cleanup primitive for interrupted processes, which cannot know
        whether their request was granted before the interrupt landed.
        """
        if request in self._users:
            self.release(request)
        else:
            self.cancel(request)

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

