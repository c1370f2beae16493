"""The simulation engine: virtual clock and event queue."""

from __future__ import annotations

import typing
from heapq import heappop, heappush

from repro.simulator.events import PROCESSED, AllOf, Event, Timeout
from repro.simulator.process import Process, ProcessCrash

#: Scheduling priorities — urgent events (resource bookkeeping) run before
#: normal events at the same timestamp.
URGENT = 0
NORMAL = 1


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when no events remain."""


class Simulator:
    """Drives the virtual clock and dispatches triggered events.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(5.0)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 5.0 and proc.value == "done"
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list = []
        self._seq = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- factories -----------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value=None) -> Timeout:
        """Create an event triggering ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: typing.Generator, name: str | None = None) -> Process:
        """Spawn a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have triggered."""
        return AllOf(self, events)

    def defer(self, callback: typing.Callable[[Event], None]) -> None:
        """Call ``callback`` one queue hop from now.

        That is where a new process takes its first step, so work started
        this way issues its requests exactly where a process would have.
        """
        event = Event(self)
        event.callbacks.append(callback)
        event.succeed()

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        self._seq += 1
        heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise EmptySchedule()
        when, _prio, _seq, event = heappop(self._queue)
        self._now = when
        callbacks, event.callbacks = event.callbacks, []
        event._state = PROCESSED
        for callback in callbacks:
            callback(event)
        if event._exception is not None and not event.defused:
            raise ProcessCrash(
                f"unhandled failure in simulation: {event._exception!r}"
            ) from event._exception

    def run(self, until: float | Event | None = None):
        """Run until the queue drains, time ``until`` passes, or an event fires.

        Returns the event's value when ``until`` is an event.
        """
        step = self.step  # hot loop: one bound-method lookup, not millions
        if isinstance(until, Event):
            stop = until
            while not stop.processed:
                try:
                    step()
                except EmptySchedule:
                    raise RuntimeError(
                        "simulation ran out of events before the awaited "
                        f"event triggered: {stop!r}"
                    ) from None
            return stop.value
        horizon = float("inf") if until is None else float(until)
        if horizon != horizon:
            raise ValueError("cannot run until NaN")
        if horizon != float("inf") and horizon < self._now:
            raise ValueError(f"cannot run until {horizon} < now {self._now}")
        queue = self._queue
        while queue and queue[0][0] <= horizon:
            step()
        if horizon != float("inf"):
            self._now = horizon
        return None
