"""Contention primitives: units and containers.

These model the shared hardware of the paper's system model: a tape drive,
a disk arm or the library robot is a :class:`Unit` (one request at a time),
and buffer space is a :class:`Container` (a level of blocks produced and
consumed).
"""

from __future__ import annotations

import collections
import typing

from repro.simulator.events import PROCESSED, Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.engine import Simulator


class Unit:
    """One server and a FIFO queue of grant callbacks.

    A disk arm, a tape drive mechanism or the library robot serves one
    request at a time.  :meth:`acquire` takes the unit at once or queues
    the caller's ``granted`` callback; :meth:`release` hands the unit to
    the oldest waiter one queue hop later, so a grant is one heap entry
    and builds no event.
    """

    __slots__ = ("sim", "busy", "queue")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.busy = False
        self.queue: collections.deque[typing.Callable[[typing.Any], None]] = (
            collections.deque()
        )

    def acquire(self, granted: typing.Callable[[typing.Any], None]) -> bool:
        """Take the unit now (True), or queue ``granted`` (False).

        A queued ``granted`` is called with None once the unit is handed
        to it; a caller that got True runs its grant itself.
        """
        if not self.busy:
            self.busy = True
            return True
        self.queue.append(granted)
        return False

    def release(self) -> None:
        """Hand the unit to the oldest waiter, or free it."""
        if not self.busy:
            raise RuntimeError("releasing a unit that is not held")
        if self.queue:
            self.sim._schedule(self.queue.popleft(), None)
        else:
            self.busy = False


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
