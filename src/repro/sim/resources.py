"""Shared-resource primitives for the DES kernel.

:class:`Resource` models a server with fixed capacity and a FIFO (or
priority) wait queue, for slots held across other waits (worker
threads, DMA engines, locks).  Requests are events; a process does::

    req = resource.request()
    yield req
    ...   # holding one slot
    resource.release(req)

:class:`FifoServer` is the analytic form for servers that are only ever
held for a duration known up front (links, PCIe lanes, media channels,
CPU cores): ``yield server.hold(duration)`` books the earliest-free slot
and waits one :class:`Timeout`, where the ``Resource`` path spends a
grant, a timeout, and a release.
"""

from __future__ import annotations

import heapq
import itertools

from ..errors import SimulationError
from .core import Environment, Event, Timeout


class Request(Event):
    """A pending claim on one unit of a :class:`Resource`."""

    __slots__ = ("resource", "priority", "_order")

    def __init__(self, resource: "Resource", priority: int):
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self._order = next(resource._counter)

    def __lt__(self, other: "Request") -> bool:
        return (self.priority, self._order) < (other.priority, other._order)

    def _cancel_on_interrupt(self) -> None:
        """Withdraw this claim when the waiting process is interrupted
        (hook called by :meth:`Process.interrupt`).

        A claim granted in the same ns, before the waiter resumed, is
        released: the killed waiter never learns it holds the slot.
        """
        if not self.triggered:
            self.resource.cancel(self)
        elif self in self.resource._users:
            self.resource.release(self)


class Resource:
    """A counted resource with ``capacity`` slots and a priority/FIFO queue.

    Lower ``priority`` values are served first; equal priorities are FIFO.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"Resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users: set[Request] = set()
        self._waiting: list[Request] = []
        self._counter = itertools.count()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self, priority: int = 0) -> Request:
        """Claim one slot; the returned event fires once granted."""
        req = Request(self, priority)
        if len(self._users) < self.capacity and not self._waiting:
            self._users.add(req)
            req.succeed(req)
        else:
            heapq.heappush(self._waiting, req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot and wake the next waiter."""
        if request not in self._users:
            raise SimulationError(f"release() of a request not holding {self.name or 'resource'}")
        self._users.remove(request)
        self._grant_next()

    def cancel(self, request: Request) -> None:
        """Abandon a request that has not been granted yet."""
        if request in self._users:
            raise SimulationError("cancel() on a granted request; use release()")
        try:
            self._waiting.remove(request)
            heapq.heapify(self._waiting)
        except ValueError:
            pass

    def _grant_next(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            req = heapq.heappop(self._waiting)
            if req.triggered:  # cancelled or interrupted
                continue
            self._users.add(req)
            req.succeed(req)

    def __repr__(self) -> str:
        return (
            f"<Resource {self.name!r} {len(self._users)}/{self.capacity} busy,"
            f" {len(self._waiting)} waiting>"
        )


class FifoServer:
    """``capacity`` identical FIFO servers with known service times.

    Keeps a heap of the virtual times at which each server next falls
    idle.  :meth:`hold` books the earliest-free server from
    ``max(now, free_at)`` and returns a single :class:`Timeout` that
    fires when service ends plus an unheld tail.  Completion times equal
    those of ``request -> timeout(duration) -> release`` on a FIFO
    :class:`Resource` of the same capacity; only the event count falls.

    A booking is final: if the waiting process is interrupted, the
    server stays busy for the booked time (a frame handed to the wire is
    not recalled), where a ``Resource`` slot would be freed at once.
    """

    __slots__ = ("env", "capacity", "name", "_free_at")

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"FifoServer capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._free_at = [0] * capacity

    def hold(self, duration: int, then: int = 0) -> Timeout:
        """Book ``duration`` ns of service; fires ``then`` ns after it ends.

        ``then`` is an unheld tail: propagation, TLP latency, pipeline
        drain.  Returns the :class:`Timeout` for the caller to yield.
        """
        if duration < 0 or then < 0:
            raise SimulationError(f"negative hold: duration={duration} then={then}")
        env = self.env
        now = env._now
        free_at = self._free_at
        start = free_at[0]
        if start < now:
            start = now
        heapq.heapreplace(free_at, start + duration)
        return Timeout(env, start - now + duration + then)

    def __repr__(self) -> str:
        return f"<FifoServer {self.name!r} x{self.capacity}>"


class Semaphore:
    """A counted token pool; ``acquire`` events fire FIFO as tokens free up."""

    def __init__(self, env: Environment, tokens: int, name: str = ""):
        if tokens < 0:
            raise SimulationError(f"Semaphore tokens must be >= 0, got {tokens}")
        self.env = env
        self.name = name
        self._tokens = tokens
        self._waiting: list[Event] = []

    @property
    def tokens(self) -> int:
        """Currently available tokens."""
        return self._tokens

    def acquire(self) -> Event:
        """Take one token; fires immediately if one is available."""
        ev = Event(self.env)
        if self._tokens > 0 and not self._waiting:
            self._tokens -= 1
            ev.succeed()
        else:
            self._waiting.append(ev)
        return ev

    def release(self, n: int = 1) -> None:
        """Return ``n`` tokens, waking waiters in FIFO order."""
        if n < 1:
            raise SimulationError(f"release() needs n >= 1, got {n}")
        self._tokens += n
        while self._waiting and self._tokens > 0:
            self._tokens -= 1
            self._waiting.pop(0).succeed()
