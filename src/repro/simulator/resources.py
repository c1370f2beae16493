"""Contention primitives: resources, containers and stores.

These model the shared hardware of the paper's system model: a tape drive or
disk arm is a :class:`Resource` (one request at a time), buffer space is a
:class:`Container` (a level of blocks produced and consumed), and queues of
work items between producer/consumer processes are :class:`Store` instances.
"""

from __future__ import annotations

import collections
import typing

from repro.simulator.events import PROCESSED, Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.engine import Simulator


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource


class Resource:
    """A resource with ``capacity`` slots and a FIFO wait queue."""

    def __init__(self, sim: "Simulator", capacity: int = 1):
        if not capacity >= 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: collections.deque[Request] = collections.deque()

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self) -> Request:
        """Claim a slot; the returned event triggers when granted.

        An uncontended request is granted synchronously: the event comes
        back already processed, so a waiting process resumes inline
        instead of taking a round-trip through the event queue.  Queued
        requests are granted through the scheduler by :meth:`release`.
        """
        req = Request(self)
        if len(self.users) < self.capacity and not self.queue:
            self.users.append(req)
            req._state = PROCESSED
        else:
            self.queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        try:
            self.users.remove(request)
        except ValueError:
            raise RuntimeError("releasing a request that does not hold the resource")
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()


class ContainerEvent(Event):
    """A pending put or get against a :class:`Container`."""

    def __init__(self, container: "Container", amount: float):
        if not amount >= 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        super().__init__(container.sim)
        self.container = container
        self.amount = amount


#: Slack for level comparisons.  Quantities here are block counts (unit
#: scale); accumulated float dust from fractional-block arithmetic must
#: never wedge a waiter that is short by an epsilon.
_LEVEL_EPS = 1e-6


class Container:
    """A homogeneous quantity (e.g. blocks of buffer space) with a level.

    ``get`` events block until the requested amount is available; ``put``
    events block until the container has room.  Queues are FIFO with no
    overtaking, so a large waiter is not starved by smaller ones.
    Comparisons carry a small epsilon so fractional-block float dust
    cannot deadlock an exactly-sized producer/consumer pair.
    """

    def __init__(self, sim: "Simulator", capacity: float = float("inf"), init: float = 0.0):
        if not capacity > 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if not 0 <= init <= capacity:
            raise ValueError(f"init {init} outside [0, {capacity}]")
        self.sim = sim
        self.capacity = capacity
        self._level = float(init)
        self._puts: collections.deque[ContainerEvent] = collections.deque()
        self._gets: collections.deque[ContainerEvent] = collections.deque()

    @property
    def level(self) -> float:
        """Current stored amount."""
        return self._level

    def put(self, amount: float) -> ContainerEvent:
        """Add ``amount``; triggers once the container has room.

        A put that fits right away (and overtakes nobody) completes
        synchronously — the event comes back already processed — so the
        common uncontended case costs no trip through the event queue.
        """
        event = ContainerEvent(self, amount)
        if amount > self.capacity:
            event.fail(ValueError(f"put of {amount} exceeds capacity {self.capacity}"))
            return event
        if not self._puts and self._level + amount <= self.capacity + _LEVEL_EPS:
            self._level = min(self.capacity, self._level + amount)
            event._state = PROCESSED
            if self._gets:
                self._drain()  # the new level may release waiting getters
            return event
        self._puts.append(event)
        self._drain()
        return event

    def get(self, amount: float) -> ContainerEvent:
        """Remove ``amount``; triggers once that much is available.

        Like :meth:`put`, an immediately satisfiable get completes
        synchronously without a scheduler round-trip.
        """
        event = ContainerEvent(self, amount)
        if amount > self.capacity:
            event.fail(ValueError(f"get of {amount} exceeds capacity {self.capacity}"))
            return event
        if not self._gets and self._level >= amount - _LEVEL_EPS:
            self._level = max(0.0, self._level - amount)
            event._state = PROCESSED
            if self._puts:
                self._drain()  # the freed room may admit waiting putters
            return event
        self._gets.append(event)
        self._drain()
        return event

    def _drain(self) -> None:
        progress = True
        while progress:
            progress = False
            if (
                self._puts
                and self._level + self._puts[0].amount <= self.capacity + _LEVEL_EPS
            ):
                put = self._puts.popleft()
                self._level = min(self.capacity, self._level + put.amount)
                put.succeed()
                progress = True
            if self._gets and self._level >= self._gets[0].amount - _LEVEL_EPS:
                get = self._gets.popleft()
                self._level = max(0.0, self._level - get.amount)
                get.succeed()
                progress = True


class StoreEvent(Event):
    """A pending put or get against a :class:`Store`."""

    def __init__(self, store: "Store", item=None):
        super().__init__(store.sim)
        self.store = store
        self.item = item


class Store:
    """A FIFO queue of discrete items with optional capacity."""

    def __init__(self, sim: "Simulator", capacity: float = float("inf")):
        if not capacity > 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.items: collections.deque = collections.deque()
        self._puts: collections.deque[StoreEvent] = collections.deque()
        self._gets: collections.deque[StoreEvent] = collections.deque()

    def put(self, item) -> StoreEvent:
        """Append ``item``; triggers once there is room.

        A put with room (and no queued puts to overtake) completes
        synchronously, skipping the scheduler round-trip.
        """
        event = StoreEvent(self, item)
        if not self._puts and len(self.items) < self.capacity:
            self.items.append(item)
            event._state = PROCESSED
            if self._gets:
                self._drain()  # the new item may release a waiting getter
            return event
        self._puts.append(event)
        self._drain()
        return event

    def get(self) -> StoreEvent:
        """Pop the oldest item; triggers once one exists.

        Like :meth:`put`, a get against a non-empty store completes
        synchronously with the popped item as its value.
        """
        event = StoreEvent(self)
        if not self._gets and self.items:
            event._value = self.items.popleft()
            event._state = PROCESSED
            if self._puts:
                self._drain()  # the freed slot may admit a waiting putter
            return event
        self._gets.append(event)
        self._drain()
        return event

    def _drain(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._puts and len(self.items) < self.capacity:
                put = self._puts.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            if self._gets and self.items:
                get = self._gets.popleft()
                get.succeed(self.items.popleft())
                progress = True
